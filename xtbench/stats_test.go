package main

import "testing"

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs) for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
		{[]float64{2.5, 1, 4, 8, 3.5, 6, 7.5, 0.5, 9, 10}, 2.125, 5, 8.25},
		{[]float64{1, 1, 1}, 1, 1, 1},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := median(c.xs); got != c.m {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.m)
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{2.5, 1, 4, 8, 3.5, 6, 7.5, 0.5, 9, 10}); got != (8.25-2.125)/5 {
		t.Errorf("spread = %v", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread of nothing = %v, want 0", got)
	}
}
