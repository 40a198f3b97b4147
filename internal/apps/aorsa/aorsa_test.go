package aorsa

import (
	"sync"
	"testing"

	"xtsim/internal/machine"
)

// cellKey names one Run cell. Several tests assert different properties
// of the same full-scale cell; run keeps each distinct cell to one
// simulation per test binary.
type cellKey struct {
	machine string
	mode    machine.Mode
	cores   int
	modes   int
}

var (
	cellsMu sync.Mutex
	cells   = map[cellKey]Result{}
)

// run is Run memoized by (machine name, mode, cores, problem modes).
func run(m machine.Machine, mode machine.Mode, cores int, prob Problem) Result {
	k := cellKey{m.Name, mode, cores, prob.Modes}
	cellsMu.Lock()
	defer cellsMu.Unlock()
	r, ok := cells[k]
	if !ok {
		r = Run(m, mode, cores, prob)
		cells[k] = r
	}
	return r
}

func TestMatrixOrder(t *testing.T) {
	if n := Standard350().MatrixOrder(); n != 3*350*350/2 {
		t.Fatalf("order = %d", n)
	}
	if Large500().MatrixOrder() <= Standard350().MatrixOrder() {
		t.Fatal("500-mode problem should be larger")
	}
}

func TestFig23GenerationalProgression(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full-scale (4k-22.5k core) runs")
	}
	// Figure 23 at 4,096 cores: total grind time improves XT3 → XT4
	// (the paper's solver went 10.56 → 11.8 TFLOPS with the upgrade,
	// then 16.7 with Goto BLAS).
	prob := Standard350()
	xt3 := run(machine.XT3DualCore(), machine.VN, 4096, prob)
	xt4 := run(machine.XT4(), machine.VN, 4096, prob)
	if xt4.TotalMinutes >= xt3.TotalMinutes {
		t.Errorf("XT4 total %.1f min should beat XT3 %.1f min", xt4.TotalMinutes, xt3.TotalMinutes)
	}
}

func TestFig23StrongScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full-scale (4k-22.5k core) runs")
	}
	prob := Standard350()
	r4k := run(machine.XT4(), machine.VN, 4096, prob)
	r8k := run(machine.XT4(), machine.VN, 8192, prob)
	// 22.5k cores needs the combined XT3+XT4 machine (§3), matching the
	// figure's "22.5k XT3/4" label.
	r22k := run(machine.CombinedXT3XT4(), machine.VN, 22500, prob)

	if !(r8k.TotalMinutes < r4k.TotalMinutes && r22k.TotalMinutes < r8k.TotalMinutes) {
		t.Errorf("strong scaling broken: %.1f / %.1f / %.1f min at 4k/8k/22.5k",
			r4k.TotalMinutes, r8k.TotalMinutes, r22k.TotalMinutes)
	}
	// Efficiency decreases with scale (65% at 22.5k vs 78.4% at 4k in
	// §6.5).
	if r22k.PeakFraction >= r4k.PeakFraction {
		t.Errorf("peak fraction should fall with scale: %.2f @4k vs %.2f @22.5k",
			r4k.PeakFraction, r22k.PeakFraction)
	}
}

func TestFig23SolverMilestones(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full-scale (4k-22.5k core) runs")
	}
	// §6.5 anchors: ≈ 16.7 TFLOPS (78.4% of peak) at 4,096 cores;
	// ≈ 65% of peak at 22,500 cores.
	prob := Standard350()
	r4k := run(machine.XT4(), machine.VN, 4096, prob)
	if r4k.SolveTFLOPS < 11 || r4k.SolveTFLOPS > 19 {
		t.Errorf("4k solver = %.1f TFLOPS, want ≈ 16.7", r4k.SolveTFLOPS)
	}
	if r4k.PeakFraction < 0.55 || r4k.PeakFraction > 0.85 {
		t.Errorf("4k peak fraction = %.2f, want ≈ 0.78", r4k.PeakFraction)
	}
	r22k := run(machine.CombinedXT3XT4(), machine.VN, 22500, prob)
	if r22k.PeakFraction < 0.35 || r22k.PeakFraction > 0.75 {
		t.Errorf("22.5k peak fraction = %.2f, want ≈ 0.65", r22k.PeakFraction)
	}
}

func TestLarge500ImprovesEfficiencyAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full-scale (4k-22.5k core) runs")
	}
	// §6.5: on 22.5k cores the larger 500×500 grid improves performance
	// to 87.5 TFLOPS (74.8% of peak) versus 65% for the 350×350 problem.
	small := run(machine.CombinedXT3XT4(), machine.VN, 16384, Standard350())
	large := run(machine.CombinedXT3XT4(), machine.VN, 16384, Large500())
	if large.PeakFraction <= small.PeakFraction {
		t.Errorf("500-mode problem (%.2f) should use the machine better than 350 (%.2f)",
			large.PeakFraction, small.PeakFraction)
	}
}

func TestGrindTimeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full-scale (4k-22.5k core) runs")
	}
	// Figure 23's Y axis runs 0–100 minutes; phases should land inside.
	r := run(machine.XT4(), machine.VN, 4096, Standard350())
	if r.SolveMinutes < 5 || r.SolveMinutes > 60 {
		t.Errorf("Ax=b = %.1f min, want tens of minutes", r.SolveMinutes)
	}
	if r.QLMinutes < 3 || r.QLMinutes > 60 {
		t.Errorf("QL = %.1f min, want tens of minutes", r.QLMinutes)
	}
	if r.TotalMinutes > 100 {
		t.Errorf("total = %.1f min, exceeds the figure's scale", r.TotalMinutes)
	}
}
