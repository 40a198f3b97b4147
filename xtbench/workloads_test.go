package main

import (
	"reflect"
	"testing"
)

func isPerm(p []int, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestPlacementIsSeeded(t *testing.T) {
	if p := placement(0, 3, 64); p != nil {
		t.Fatalf("seed 0 placement = %v, want the identity (nil)", p)
	}
	a, b := placement(7, 3, 64), placement(7, 3, 64)
	if !isPerm(a, 64) || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 placements differ or are not permutations: %v %v", a, b)
	}
	if reflect.DeepEqual(a, placement(8, 3, 64)) {
		t.Fatal("seeds 7 and 8 give the same placement")
	}
	if reflect.DeepEqual(a, placement(7, 4, 64)) {
		t.Fatal("cells 3 and 4 share a placement")
	}
}

func TestOrderIsSeeded(t *testing.T) {
	if o := order(0, 5); !reflect.DeepEqual(o, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("seed 0 order = %v, want the paper's", o)
	}
	for seed := int64(1); seed <= 20; seed++ {
		o := order(seed, 5)
		if !isPerm(o, 5) || !reflect.DeepEqual(o, order(seed, 5)) {
			t.Fatalf("seed %d order %v is not a repeatable permutation", seed, o)
		}
	}
}

func cellNames(cs []*cell) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.name)
	}
	return out
}

func TestCellsAreSeeded(t *testing.T) {
	for _, w := range []workload{{name: "petascale", cells: petascaleCells}, {name: "sharded-halo", cells: shardedHaloCells}, {name: "ckpt-observed", cells: ckptObservedCells}} {
		base, _, err := w.cells(0)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 6; seed++ {
			a, _, err := w.cells(seed)
			if err != nil {
				t.Fatal(err)
			}
			b, _, _ := w.cells(seed)
			if !reflect.DeepEqual(cellNames(a), cellNames(b)) {
				t.Fatalf("%s: seed %d gives cell orders %v and %v", w.name, seed, cellNames(a), cellNames(b))
			}
			if len(a) != len(base) {
				t.Fatalf("%s: seed %d has %d cells, seed 0 has %d", w.name, seed, len(a), len(base))
			}
			for i := range a {
				if (a[i].inputs == nil) != (b[i].inputs == nil) {
					t.Fatalf("%s: cell %s inputs differ", w.name, a[i].name)
				}
				if a[i].inputs != nil && !reflect.DeepEqual(a[i].inputs(), b[i].inputs()) {
					t.Fatalf("%s: seed %d cell %s placement is not repeatable", w.name, seed, a[i].name)
				}
			}
		}
	}
}

func TestLoadGolden(t *testing.T) {
	gold, err := loadGolden("../experiments_output.txt", "fig14", "fig17")
	if err != nil {
		t.Fatal(err)
	}
	// Rows of Figures 14 and 17 in the committed campaign output.
	for key, want := range map[string]string{
		"fig14/30/XT3 SN":      "0.13",
		"fig14/120/XT4 VN":     "0.54",
		"fig17/256/XT3 SN":     "0.92",
		"fig17/1024/XT4 SN":    "3.94",
		"fig17/1024/XT3-DC VN": "3.36",
	} {
		if gold[key] != want {
			t.Errorf("golden %q = %q, want %q", key, gold[key], want)
		}
	}
	if _, ok := gold["fig15/64/XT4-SN"]; ok {
		t.Error("loadGolden read an experiment it was not asked for")
	}
}

func TestSplitColumns(t *testing.T) {
	got := splitColumns("1024   3.50    3.36       3.94    3.60    ")
	want := []string{"1024", "3.50", "3.36", "3.94", "3.60"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitColumns = %q, want %q", got, want)
	}
	if got := splitColumns("tasks  XT3 SN  XT3-DC VN"); !reflect.DeepEqual(got, []string{"tasks", "XT3 SN", "XT3-DC VN"}) {
		t.Fatalf("header split = %q", got)
	}
}
