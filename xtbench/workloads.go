package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"xtsim/internal/apps/cam"
	"xtsim/internal/apps/pop"
	"xtsim/internal/apps/s3d"
	"xtsim/internal/core"
	"xtsim/internal/expt"
	ckpt "xtsim/internal/io"
	"xtsim/internal/lustre"
	"xtsim/internal/machine"
	"xtsim/internal/sim"
	"xtsim/internal/trace"
)

// A workload is a set of cells the benchmark runs once per iteration. The
// seed generates each cell's inputs — its task placement and the order the
// cells run in; seed 0 gives the paper's identity placement and order.
type workload struct {
	name string
	why  string
	// cells returns the measured cells in run order, and cells that run
	// once, untimed, before measuring to check the model against a
	// reference the measured cells cannot carry.
	cells func(seed int64) (measured, verifyOnly []*cell, err error)
	// derive computes metrics that join several cells' outcomes of one
	// iteration; nil when no metric does.
	derive func(outs map[string]outcome) map[string]float64
}

// A cell is one simulated configuration. Set-up generates its inputs and
// builds its systems, returning the run, so building (set-up time) and
// simulating (wall time) are timed apart; a system runs once, so every
// iteration sets up anew.
type cell struct {
	name string
	// inputs generates the cell's task placement from the seed; nil, or a
	// nil result, means the identity placement.
	inputs func() []int
	build  func(perm []int) (func() (outcome, error), error)
	// ref is the value the run must report; "" checks only that the
	// outcome repeats across iterations. refFn, when set, computes ref in
	// the untimed verify pass.
	ref   string
	refFn func() (string, error)
	// knownDefect, when set, names a known simulator defect that makes
	// this cell miss its reference. Such a miss is counted apart from the
	// failures, under the divergent-cells metric, and reported each time.
	knownDefect string
}

// outcome is one cell run's result.
type outcome struct {
	// value is compared with the cell's reference.
	value string
	// sim is the run's headline simulated result (years/day, s/step).
	sim float64
	// digest holds every simulated result of the run; it must repeat
	// exactly across iterations.
	digest string
	events uint64
	procs  int
	// counts are per-layer counters and timings, summed over the cells of
	// an iteration.
	counts map[string]float64
}

var workloads = []workload{
	{
		name:  "des-apps",
		why:   "POP and CAM cells of Figs 14 and 17 on the serial DES with observers off: process handoff, the event heap and MPI matching",
		cells: desAppsCells,
	},
	{
		name:   "petascale",
		why:    "the 23,016-rank VN S3D cell on the DES and the analytic hybrid tier: paper-scale memory, GC and the hybrid path",
		cells:  petascaleCells,
		derive: petascaleDerive,
	},
	{
		name:  "ckpt-observed",
		why:   "512-rank S3D with checkpoints over the torus and every observer recording and exporting: observe, io and lustre work",
		cells: ckptObservedCells,
	},
	{
		name:  "sharded-halo",
		why:   "S3D ghost exchange on the two-domain sharded engine at an aligned and a misaligned rank count: the only threaded engine",
		cells: shardedHaloCells,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cellRand returns the random source of cell i's inputs under seed. Each
// cell draws from its own source, so its inputs do not depend on which
// other cells exist or the order they run in.
func cellRand(seed int64, i int) *rand.Rand {
	// splitmix64 finaliser over (seed, i).
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ z>>31)))
}

// placement returns cell i's task-to-slot permutation under seed, or nil
// for the identity placement of seed 0.
func placement(seed int64, i, tasks int) []int {
	if seed == 0 {
		return nil
	}
	return cellRand(seed, i).Perm(tasks)
}

// order returns the run order of n cells under seed: the paper's order for
// seed 0, a permutation of it otherwise.
func order(seed int64, n int) []int {
	if seed == 0 {
		o := make([]int, n)
		for i := range o {
			o[i] = i
		}
		return o
	}
	return cellRand(seed, -1).Perm(n)
}

func reorder(seed int64, cs []*cell) []*cell {
	out := make([]*cell, len(cs))
	for k, i := range order(seed, len(cs)) {
		out[k] = cs[i]
	}
	return out
}

// newSystem builds a system and installs the seed's placement.
func newSystem(m machine.Machine, mode machine.Mode, tasks int, perm []int) *core.System {
	sys := core.NewSystem(m, mode, tasks)
	if perm != nil {
		sys.SetPlacement(perm)
	}
	return sys
}

// engineStats returns the events the system's engines executed and the
// processes they spawned, across every domain of a sharded run.
func engineStats(sys *core.System) (events uint64, procs int) {
	seen := map[*sim.Engine]bool{}
	for node := range sys.Nodes {
		e := sys.EngFor(node)
		if !seen[e] {
			seen[e] = true
			procs += e.ProcsSpawned
		}
	}
	if stats := sys.ParallelStats(); stats != nil {
		for _, d := range stats {
			events += d.Events
		}
		return events, procs
	}
	return sys.Eng.EventsExecuted, procs
}

// baseCounts are the counters every cell reports.
func baseCounts(sys *core.System) map[string]float64 {
	return map[string]float64{
		"network.msgs":  float64(sys.Fabric.MsgsDelivered),
		"network.bytes": float64(sys.Fabric.BytesDelivered),
	}
}

// ---- des-apps -------------------------------------------------------------

type machineMode struct {
	label string // the column header in experiments_output.txt
	m     machine.Machine
	mode  machine.Mode
}

// desAppsCells are the short-scale cells of Figures 14 (CAM D-grid) and 17
// (POP 0.1°). On seed 0 each reproduces its row of the committed
// experiments_output.txt; on other seeds the placement is permuted, and an
// identity-placement copy of every cell checks the rows once, untimed.
func desAppsCells(seed int64) (measured, verifyOnly []*cell, err error) {
	gold, err := loadGolden("experiments_output.txt", "fig14", "fig17")
	if err != nil {
		return nil, nil, err
	}
	mkCells := func(seed int64) []*cell {
		var cs []*cell
		camB := cam.DGrid()
		for _, tasks := range []int{30, 120} {
			for _, mm := range []machineMode{
				{"XT3 SN", machine.XT3(), machine.SN},
				{"XT3-DC SN", machine.XT3DualCore(), machine.SN},
				{"XT3-DC VN", machine.XT3DualCore(), machine.VN},
				{"XT4 SN", machine.XT4(), machine.SN},
				{"XT4 VN", machine.XT4(), machine.VN},
			} {
				i := len(cs)
				cs = append(cs, &cell{
					name:   fmt.Sprintf("fig14/cam/%d/%s", tasks, mm.label),
					ref:    gold[fmt.Sprintf("fig14/%d/%s", tasks, mm.label)],
					inputs: func() []int { return placement(seed, i, tasks) },
					build: func(perm []int) (func() (outcome, error), error) {
						cfg, err := cam.Decompose(tasks, camB)
						if err != nil {
							return nil, err
						}
						sys := newSystem(mm.m, mm.mode, tasks, perm)
						return func() (outcome, error) {
							r := cam.RunOn(sys, cfg, camB)
							return appOutcome(sys, r.SimYearsPerDay, r), nil
						}, nil
					},
				})
			}
		}
		popB := pop.TenthDegree()
		for _, tasks := range []int{256, 1024} {
			for _, mm := range []machineMode{
				{"XT3 SN", machine.XT3(), machine.SN},
				{"XT3-DC VN", machine.XT3DualCore(), machine.VN},
				{"XT4 SN", machine.XT4(), machine.SN},
				{"XT4 VN", machine.XT4(), machine.VN},
			} {
				i := len(cs)
				cs = append(cs, &cell{
					name:   fmt.Sprintf("fig17/pop/%d/%s", tasks, mm.label),
					ref:    gold[fmt.Sprintf("fig17/%d/%s", tasks, mm.label)],
					inputs: func() []int { return placement(seed, i, tasks) },
					build: func(perm []int) (func() (outcome, error), error) {
						sys := newSystem(mm.m, mm.mode, tasks, perm)
						return func() (outcome, error) {
							r := pop.RunOn(sys, popB)
							return appOutcome(sys, r.SimYearsPerDay, r), nil
						}, nil
					},
				})
			}
		}
		return cs
	}
	paper := mkCells(0)
	for _, c := range paper {
		if c.ref == "" {
			return nil, nil, fmt.Errorf("des-apps: experiments_output.txt has no row for %s", c.name)
		}
	}
	if seed == 0 {
		return paper, nil, nil
	}
	measured = reorder(seed, mkCells(seed))
	for _, c := range measured {
		c.ref = ""
	}
	for _, c := range paper {
		c.name += "/identity"
	}
	return measured, paper, nil
}

// appOutcome reports an application cell: its value is the years/day
// figure as the campaign renders it.
func appOutcome(sys *core.System, yearsPerDay float64, result any) outcome {
	events, procs := engineStats(sys)
	return outcome{
		value:  fmt.Sprintf("%.2f", yearsPerDay),
		sim:    yearsPerDay,
		digest: fmt.Sprintf("%+v events=%d", result, events),
		events: events,
		procs:  procs,
		counts: baseCounts(sys),
	}
}

// loadGolden reads the rendered tables of the given experiments from the
// campaign output, keyed "<id>/<first column>/<column header>".
func loadGolden(path string, ids ...string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reference output: %w", err)
	}
	defer f.Close()
	banners := map[string]string{}
	for _, id := range ids {
		e, err := expt.ByID(id)
		if err != nil {
			return nil, err
		}
		banners[strings.TrimSuffix(e.Header(), "\n")] = id
	}
	out := map[string]string{}
	var id string
	var cols []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== ") {
			id, cols = banners[line], nil
			continue
		}
		if id == "" || strings.TrimSpace(line) == "" {
			id = ""
			continue
		}
		fields := splitColumns(line)
		if cols == nil {
			cols = fields
			continue
		}
		for k := 1; k < len(fields) && k < len(cols); k++ {
			out[id+"/"+fields[0]+"/"+cols[k]] = fields[k]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reference output: %w", err)
	}
	return out, nil
}

// splitColumns splits a rendered table row at runs of two or more spaces,
// the column gap the campaign's tabwriter leaves.
func splitColumns(line string) []string {
	var out []string
	for _, f := range strings.Split(line, "  ") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// ---- petascale ------------------------------------------------------------

// The full-machine VN S3D cell of ext-petascale: 23,016 ranks, 51³ points
// per rank, one RK step.
const (
	petaTasks  = 23016
	petaEdge   = 51
	petaDES    = "ext-petascale/23016/VN/des"
	petaHybrid = "ext-petascale/23016/VN/hybrid-analytic"
	// petaDESRef and petaHybridRef are the cell's recorded results. The
	// DES is the reference model; the analytic tier's error against it is
	// reported, not bounded.
	petaDESRef    = "s/step=4.8838850380772412 events=4018889"
	petaHybridRef = "s/step=4.8213268930323965 events=0"
)

func petascaleCells(seed int64) (measured, verifyOnly []*cell, err error) {
	b := s3d.Weak50()
	b.PointsPerEdge = petaEdge
	mk := func(name, ref string, hybrid bool) *cell {
		return &cell{
			name: name,
			ref:  ref,
			build: func([]int) (func() (outcome, error), error) {
				sys := core.NewSystem(machine.XT4Full(), machine.VN, petaTasks)
				if hybrid && !sys.EnableHybrid(core.HybridAnalytic) {
					return nil, fmt.Errorf("hybrid tier declined: %s", sys.HybridReason())
				}
				return func() (outcome, error) {
					start := time.Now()
					r := s3d.RunOn(sys, b)
					wall := since(start)
					o := s3dOutcome(sys, r)
					if !hybrid {
						o.counts["apps.des_s"] = wall
						return o, nil
					}
					o.counts["apps.hybrid_s"] = wall
					o.counts["core.hybrid_requested"] = 1
					if sys.HybridEnabled() {
						o.counts["core.hybrid_admitted"] = 1
					}
					return o, nil
				}, nil
			},
		}
	}
	return reorder(seed, []*cell{
		mk(petaDES, petaDESRef, false),
		mk(petaHybrid, petaHybridRef, true),
	}), nil, nil
}

// petascaleDerive reports the analytic tier's error against the DES.
func petascaleDerive(outs map[string]outcome) map[string]float64 {
	des, ok1 := outs[petaDES]
	hyb, ok2 := outs[petaHybrid]
	if !ok1 || !ok2 || des.sim == 0 {
		return nil
	}
	return map[string]float64{"apps.analytic_err_pct": math.Abs(hyb.sim-des.sim) / des.sim * 100}
}

func s3dOutcome(sys *core.System, r s3d.Result) outcome {
	events, procs := engineStats(sys)
	v := fmt.Sprintf("s/step=%.17g events=%d", r.SecondsPerStep, events)
	return outcome{
		value:  v,
		sim:    r.SecondsPerStep,
		digest: fmt.Sprintf("%+v events=%d", r, events),
		events: events,
		procs:  procs,
		counts: baseCounts(sys),
	}
}

// ---- ckpt-observed --------------------------------------------------------

// ckptObservedCells is one 512-rank SN S3D run, five steps with an N-to-N
// write-behind checkpoint after each, flushed over the torus to OSSes on
// four SIO nodes, with telemetry, the critical-path recorder, the timeline
// and the span tracer all recording. Every export is written; the exports'
// bytes are part of the digest.
func ckptObservedCells(seed int64) (measured, verifyOnly []*cell, err error) {
	const tasks, edge, steps = 512, 12, 5
	fs := lustre.DefaultConfig()
	fs.OSSCount = 4
	return []*cell{{
		name:   "ext-ckpt/512/SN/observed",
		inputs: func() []int { return placement(seed, 0, tasks) },
		build: func(perm []int) (func() (outcome, error), error) {
			sys := core.NewSystemSIO(machine.XT4(), machine.SN, tasks, fs.OSSCount)
			if perm != nil {
				sys.SetPlacement(perm)
			}
			sys.EnableTelemetry()
			sys.EnableCritPath()
			sys.EnableTimeline()
			tr := &trace.Recorder{}
			sys.Tracer = tr
			w, err := ckpt.Attach(sys, ckpt.Config{FS: fs, StripeCount: 4})
			if err != nil {
				return nil, err
			}
			b := s3d.Benchmark{
				PointsPerEdge:   edge,
				Variables:       12,
				RKStages:        6,
				Steps:           steps,
				Checkpoint:      w,
				CheckpointEvery: 1,
				CheckpointBytes: 4 * 8 * 12 * edge * edge * edge,
			}
			return func() (outcome, error) {
				r := s3d.RunOn(sys, b)
				o := s3dOutcome(sys, r)
				sum, err := exportAll(sys, tr, o.counts)
				if err != nil {
					return o, err
				}
				o.digest += fmt.Sprintf(" exports=%x", sum)
				return o, nil
			}, nil
		},
	}}, nil, nil
}

// exportAll builds every observer's report, checks the invariants they
// carry, writes every export format and returns the exports' digest. It
// adds the observers' counters to counts.
func exportAll(sys *core.System, tr *trace.Recorder, counts map[string]float64) (sum [sha256.Size]byte, err error) {
	start := time.Now()
	tel := sys.TelemetryReport()
	if tel == nil || tel.Fabric == nil || tel.IO == nil {
		return sum, fmt.Errorf("telemetry report lacks the fabric or I/O section")
	}
	if err := tel.Fabric.CheckConservation(); err != nil {
		return sum, err
	}
	if err := tel.IO.CheckConservation(); err != nil {
		return sum, err
	}
	cp := sys.CritPathReport()
	if cp == nil {
		return sum, fmt.Errorf("no critical-path report")
	}
	if d := math.Abs(cp.AttributionSum() - cp.MakespanSeconds); d > 1e-9*math.Max(1, cp.MakespanSeconds) {
		return sum, fmt.Errorf("critical-path attribution sums to %.12g s, makespan is %.12g s", cp.AttributionSum(), cp.MakespanSeconds)
	}
	tl := sys.TimelineReport(sys.Eng.Now())
	var buf bytes.Buffer
	for _, write := range []func(io.Writer) error{
		tel.WriteJSON, tel.WriteProm, tel.Fabric.WriteHeatmap,
		cp.WriteJSON, cp.WriteText,
		tl.WriteJSON, tl.WriteProm, tl.WriteChromeTrace,
		tr.WriteChromeTrace,
	} {
		if err := write(&buf); err != nil {
			return sum, err
		}
	}
	counts["observe.export_s"] = since(start)
	counts["observe.export_bytes"] = float64(buf.Len())
	counts["critpath.edges"] = float64(cp.EdgesRecorded)
	counts["timeline.spans"] = float64(tl.Spans)
	counts["io.bytes"] = float64(tel.IO.ClientBytesWritten + tel.IO.ClientBytesRead)
	return sha256.Sum256(buf.Bytes()), nil
}

// ---- sharded-halo ---------------------------------------------------------

// shardedHaloCells run S3D Weak50 in SN mode on XT4 on the two-domain
// sharded engine. 1728 ranks fill a 12×12×12 torus; 2048 ranks do not,
// and there the sharded engine diverges from the serial one — a known
// defect kept in the workload so it stays visible (see README.md). Each
// cell's reference is the serial engine's run of the same configuration,
// computed in the untimed verify pass.
func shardedHaloCells(seed int64) (measured, verifyOnly []*cell, err error) {
	const shards = 2
	b := s3d.Weak50()
	mk := func(tasks int, defect string) *cell {
		return &cell{
			name:        fmt.Sprintf("s3d/%d/SN/shards%d", tasks, shards),
			knownDefect: defect,
			refFn: func() (string, error) {
				sys := core.NewSystem(machine.XT4(), machine.SN, tasks)
				return s3dOutcome(sys, s3d.RunOn(sys, b)).value, nil
			},
			build: func([]int) (func() (outcome, error), error) {
				sys := core.NewSystem(machine.XT4(), machine.SN, tasks)
				if !sys.EnableParallel(shards) {
					return nil, fmt.Errorf("sharded engine declined: %s", sys.ParallelReason())
				}
				return func() (outcome, error) {
					w0 := sim.TotalWindowBarriers()
					r := s3d.RunOn(sys, b)
					o := s3dOutcome(sys, r)
					o.counts["sim.window_barriers"] = float64(sim.TotalWindowBarriers() - w0)
					o.counts["sim.foreign_hops"] = float64(sys.ParallelForeignHops())
					o.counts["core.parallel_requested"] = 1
					if sys.ParallelEnabled() {
						o.counts["core.parallel_admitted"] = 1
					}
					return o, nil
				}, nil
			},
		}
	}
	return reorder(seed, []*cell{
		mk(1728, ""),
		mk(2048, "the sharded engine diverges from the serial engine at rank counts that do not fill the torus"),
	}), nil, nil
}
