package expt

import (
	"xtsim/internal/apps/s3d"
	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// The ext-petascale experiment is the hybrid rank fast path's showcase
// (DESIGN.md §4i) and the paper-scale capstone: S3D strong scaling on the
// full combined XT3/XT4 — the 11,706-node, 23,016-core configuration of §2
// — up to every core of the machine. Each cell runs twice: once on the
// coroutine-per-rank DES as the reference, once on the hybrid fast path,
// and the table compares them. SN cells pin the task grid to the torus
// dimensions, which makes every ghost exchange single-hop on a link no
// other rank routes over — the placement where the exact tier admits and
// must reproduce the DES bit for bit ("identical" in the table). The
// full-machine VN cell exceeds the exact tier's envelope (two ranks share
// each NIC), so it runs the analytic tier and reports the model error
// instead.

func init() {
	register(Experiment{
		ID: "ext-petascale", Artifact: "Extension",
		Title: "Full-machine S3D strong scaling on the hybrid fast path (XT4-full, 23,016 cores)",
		Run:   runExtPetascale,
	})
}

// applyHybrid requests the hybrid fast path on a freshly built sweep-cell
// system according to Options.Hybrid. "" and "off" leave the DES in charge
// (experiments with their own per-cell defaults, like ext-petascale, treat
// "" as auto). Admission may still decline and the exact tier may abort
// mid-run — both fall back to the DES, so rendered output never depends on
// whether the request was granted.
func applyHybrid(sys *core.System, o Options) {
	switch o.Hybrid {
	case "exact":
		sys.EnableHybrid(core.HybridExact)
	case "analytic":
		sys.EnableHybrid(core.HybridAnalytic)
	}
}

// petaCell is one strong-scaling point: the global grid is fixed (≈1440³
// points full scale, ≈240³ short) and the per-task edge shrinks as tasks
// grow, so tasks×edge³ is approximately constant down each column.
type petaCell struct {
	tasks int
	mode  machine.Mode
	tier  core.HybridTier
	edge  int
}

func petaCells(o Options) []petaCell {
	if o.Short {
		return []petaCell{
			{512, machine.SN, core.HybridExact, 30},
			{1024, machine.VN, core.HybridAnalytic, 24},
		}
	}
	return []petaCell{
		{1728, machine.SN, core.HybridExact, 120},
		{4096, machine.SN, core.HybridExact, 90},
		{11232, machine.SN, core.HybridExact, 64},
		{23016, machine.VN, core.HybridAnalytic, 51},
	}
}

func runExtPetascale(res *Result, o Options) error {
	m := machine.XT4Full()
	cells := petaCells(o)

	type outcome struct {
		des, hyb s3d.Result
		tier     core.HybridTier
		enabled  bool
		skipped  bool // -hybrid off: no fast-path run
		reason   string
	}
	outs := make([]outcome, len(cells))
	runCells(o, len(cells), func(i int) {
		c := cells[i]
		out := &outs[i]
		b := s3d.Weak50()
		b.PointsPerEdge = c.edge
		if c.mode == machine.SN {
			// Pin the task grid to the torus so rank numbering and node
			// numbering coincide (s3d and torus both index x-fastest).
			tor := m.TorusFor(c.tasks)
			if tor.Nodes() != c.tasks {
				panic("ext-petascale: cell task count must fill its torus exactly")
			}
			b.Grid = [3]int{tor.NX, tor.NY, tor.NZ}
		}

		out.des = s3d.RunOn(core.NewSystem(m, c.mode, c.tasks), b)

		out.tier = c.tier
		switch o.Hybrid {
		case "off":
			out.skipped = true
			return
		case "exact":
			out.tier = core.HybridExact
		case "analytic":
			out.tier = core.HybridAnalytic
		}
		sys := core.NewSystem(m, c.mode, c.tasks)
		sys.EnableHybrid(out.tier)
		out.hyb = s3d.RunOn(sys, b)
		out.enabled = sys.HybridEnabled()
		out.reason = sys.HybridReason()
	})

	res.Textf("S3D strong scaling on %s (%d compute nodes of the 11,706-node system, %d cores): fixed global grid, one RK step, DES reference vs hybrid fast path:\n",
		m.Name, m.TotalNodes, m.MaxCores())
	t := res.Table()
	t.Row("tasks", "mode", "tier", "pts/task", "DES s/step", "hybrid s/step", "vs DES")
	for i, c := range cells {
		out := outs[i]
		res.AddSimSeconds(out.des.SecondsPerStep)
		pts := itoa(c.edge) + "^3"
		if out.skipped {
			t.Row(itoa(c.tasks), c.mode.String(), "-", pts, f4(out.des.SecondsPerStep), "-", "(hybrid off)")
			continue
		}
		res.AddSimSeconds(out.hyb.SecondsPerStep)
		match := ""
		switch {
		case !out.enabled:
			match = "fell back: " + out.reason
		case out.tier == core.HybridExact:
			if out.hyb.SecondsPerStep == out.des.SecondsPerStep {
				match = "identical"
			} else {
				match = "DIVERGED"
			}
		default:
			d := (out.hyb.SecondsPerStep - out.des.SecondsPerStep) / out.des.SecondsPerStep
			match = "Δ " + f2(d*100) + "%"
		}
		t.Row(itoa(c.tasks), c.mode.String(), out.tier.String(), pts,
			f4(out.des.SecondsPerStep), f4(out.hyb.SecondsPerStep), match)
	}
	res.Textln("(SN cells pin the task grid to the torus, so the exact tier's single-owner condition holds by construction and its replayed reservations must equal the DES bit for bit. The full-machine VN cell shares NICs between ranks, outside the exact envelope; the analytic tier prices it with the uncontended closed form plus VN mediation terms. DESIGN.md §4i.)")
	return nil
}
