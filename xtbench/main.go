// Command xtbench is the xtsim benchmark: it runs one workload of the
// simulator in a closed loop — each iteration starts when the previous one
// ends — for a given number of seconds, checks every simulated result, and
// prints the host-side cost of simulating it. See README.md.
//
//	xtbench --workload des-apps --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with no
// profiler running. With --trace 1 every other iteration runs under a CPU
// profile, and the result holds the per-layer metrics. The last line of
// standard output is the result as one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"xtsim/internal/core"
	"xtsim/internal/sim"
)

// metricDef is one reported metric. For a per-layer metric, moves names the
// end-to-end metrics and workloads it should move.
type metricDef struct {
	name, unit, moves string
}

var endToEnd = []metricDef{
	{"wall_s", "s", ""},
	{"events_per_s", "1/s", ""},
	{"cpu_s", "s", ""},
	{"peak_mem_bytes", "B", ""},
	{"setup_s", "s", ""},
}

var perLayer = []metricDef{
	{"sim.handoff.cpu_s", "s", "wall_s, events_per_s on des-apps and petascale (DES); not apps.hybrid_s"},
	{"sim.cpu_s", "s", "wall_s, events_per_s on des-apps and petascale (DES); not apps.hybrid_s"},
	{"mpi.cpu_s", "s", "wall_s, events_per_s on des-apps and petascale (DES); not apps.hybrid_s"},
	{"network.cpu_s", "s", "wall_s on ckpt-observed"},
	{"torus.cpu_s", "s", "wall_s on ckpt-observed"},
	{"gc.cpu_s", "s", "peak_mem_bytes, wall_s on petascale"},
	{"observe.cpu_s", "s", "wall_s on ckpt-observed; not des-apps"},
	{"io.cpu_s", "s", "wall_s on ckpt-observed"},
	{"apps.cpu_s", "s", "wall_s on all workloads"},
	{"core.cpu_s", "s", "wall_s on all workloads"},
	{"other.cpu_s", "s", "wall_s on all workloads (runtime background work, the benchmark itself)"},
	{"sim.events", "count", "exact; must not change under a perf-only change"},
	{"sim.procs", "count", "exact; must not change under a perf-only change"},
	{"gc.alloc_bytes_per_event", "B/event", "peak_mem_bytes, wall_s on petascale"},
	{"gc.cycles", "count", "peak_mem_bytes, wall_s on petascale"},
	{"gc.peak_live_heap_bytes", "B", "peak_mem_bytes on petascale"},
	{"observe.export_s", "s", "wall_s on ckpt-observed; not des-apps"},
	{"observe.export_bytes", "B", "wall_s on ckpt-observed; not des-apps"},
	{"critpath.edges", "count", "wall_s on ckpt-observed; not des-apps"},
	{"timeline.spans", "count", "wall_s on ckpt-observed; not des-apps"},
	{"io.bytes", "B", "wall_s on ckpt-observed"},
	{"network.msgs", "count", "wall_s on ckpt-observed"},
	{"network.bytes", "B", "wall_s on ckpt-observed"},
	{"sim.window_barriers", "count", "wall_s, cpu_s on sharded-halo"},
	{"sim.foreign_hops", "count", "wall_s, cpu_s on sharded-halo"},
	{"core.parallel_admit_ratio", "ratio", "wall_s, cpu_s on sharded-halo"},
	{"core.hybrid_admit_ratio", "ratio", "wall_s, analytic_err_pct on petascale"},
	{"apps.des_s", "s", "wall_s, analytic_err_pct on petascale"},
	{"apps.hybrid_s", "s", "wall_s, analytic_err_pct on petascale"},
	{"apps.analytic_err_pct", "%", "the analytic tier's error against the DES on petascale; exact"},
	{"core.setup_s", "s", "setup_s on all workloads"},
	{"core.fallbacks", "count", "setup_s on all workloads"},
	{"cells.failed_frac", "ratio", "failed cells / attempted cells; 0 unless a result is wrong"},
	{"sim.shard_divergent_cells", "count", "sharded-halo cells that miss the serial result by a known defect"},
	{"trace.overhead_ratio", "ratio", "profiled wall over unprofiled wall of the same run"},
}

// setupRepeats is how many extra set-ups each run times before measuring,
// so setup_s is a median even when a run fits a single iteration.
const setupRepeats = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 0, "input seed; 0 gives the paper's placement and cell order")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 profiles every other iteration and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "xtbench: need --workload (%s), --seconds ≥ 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}

	fmt.Fprintf(stdout, "# xtbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "# host: %s\n", currentHost())

	measured, verifyOnly, err := w.cells(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "xtbench: %s: %v\n", w.name, err)
		return 1
	}
	t := &tally{out: stdout}

	// The untimed verify pass: references the measured cells are checked
	// against, and reference-only cells.
	for _, c := range measured {
		if c.refFn == nil {
			continue
		}
		ref, err := safeRef(c)
		if err != nil {
			t.attempted++
			t.fail(c.name, fmt.Errorf("reference run: %w", err))
			continue
		}
		c.ref = ref
	}
	_, _, runs := setUp(verifyOnly)
	for i, c := range verifyOnly {
		out, err := runs[i].exec()
		t.check(c, out, err)
	}

	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		s, _, _ := setUp(measured)
		setups = append(setups, s)
	}

	minIters := 1 + *traced
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	var iters []iteration
	for i := 0; ; i++ {
		iterStart := time.Now()
		runtime.GC()
		it, err := runIteration(w, measured, *traced == 1 && i%2 == 1, t)
		if err != nil {
			fmt.Fprintf(stderr, "xtbench: %v\n", err)
			return 1
		}
		iters = append(iters, it)
		setups = append(setups, it.setup)
		fmt.Fprintf(stdout, "# iteration %d: profiled=%t setup_s=%.6f wall_s=%.6f cpu_s=%.6f events=%d peak_mem_bytes=%.0f\n",
			i, it.profiled, it.setup, it.wall, it.cpu, it.events, it.peakMem)
		// Stop before an iteration that would end past the budget.
		if len(iters) >= minIters && time.Since(start)+time.Since(iterStart) > budget {
			break
		}
	}

	res := summarize(iters, setups, t)
	res.print(stdout, t)
	metrics := map[string]jsonMetric{}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		metrics[d.name] = jsonMetric{Value: res.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(jsonResult{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "xtbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// tally counts checked cell runs and reports each miss with its cell.
type tally struct {
	out       io.Writer
	attempted int
	failed    int
	// divergent holds the cells whose misses a known defect explains.
	divergent map[string]bool
	// first holds each cell's first outcome, which later ones must repeat.
	first map[string]outcome
}

func (t *tally) fail(name string, err error) {
	t.failed++
	fmt.Fprintf(t.out, "# FAILED %s: %v\n", name, err)
}

// check counts one run of c and compares it with c's reference and with
// c's first run.
func (t *tally) check(c *cell, out outcome, err error) {
	t.attempted++
	switch {
	case err != nil:
		t.fail(c.name, err)
		return
	case c.ref != "" && out.value != c.ref && c.knownDefect != "":
		if t.divergent == nil {
			t.divergent = map[string]bool{}
		}
		t.divergent[c.name] = true
		fmt.Fprintf(t.out, "# KNOWN DEFECT %s: got %s, reference %s: %s\n", c.name, out.value, c.ref, c.knownDefect)
	case c.ref != "" && out.value != c.ref:
		t.fail(c.name, fmt.Errorf("got %s, reference %s", out.value, c.ref))
		return
	}
	if t.first == nil {
		t.first = map[string]outcome{}
	}
	f, ok := t.first[c.name]
	if !ok {
		t.first[c.name] = out
		fmt.Fprintf(t.out, "# cell %s: %s\n", c.name, out.value)
		return
	}
	if out.digest != f.digest || out.events != f.events {
		t.fail(c.name, fmt.Errorf("result changed between iterations: %q (%d events), first %q (%d events)",
			out.digest, out.events, f.digest, f.events))
	}
}

// safeRef computes c's reference, turning a panic into an error.
func safeRef(c *cell) (ref string, err error) {
	defer recoverInto(&err)
	return c.refFn()
}

func safeBuild(c *cell, perm []int) (r func() (outcome, error), err error) {
	defer recoverInto(&err)
	return c.build(perm)
}

// recoverInto reports a panic in the simulator (a deadlock, a broken
// invariant) as the cell's error instead of ending the benchmark.
func recoverInto(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v", p)
	}
}

// setUp generates every cell's inputs and builds its systems. It returns
// the whole set-up time, the part spent building systems, and the runs
// (nil where set-up failed, with the error).
func setUp(cells []*cell) (total, build float64, runs []built) {
	start := time.Now()
	perms := make([][]int, len(cells))
	for i, c := range cells {
		if c.inputs != nil {
			perms[i] = c.inputs()
		}
	}
	mid := time.Now()
	runs = make([]built, len(cells))
	for i, c := range cells {
		runs[i].run, runs[i].err = safeBuild(c, perms[i])
	}
	end := time.Now()
	return end.Sub(start).Seconds(), end.Sub(mid).Seconds(), runs
}

// built is one cell after set-up: its run, or why set-up failed.
type built struct {
	run func() (outcome, error)
	err error
}

// exec runs the cell, turning a panic into an error.
func (b built) exec() (out outcome, err error) {
	if b.err != nil {
		return outcome{}, b.err
	}
	defer recoverInto(&err)
	return b.run()
}

// iteration is one pass over a workload's cells.
type iteration struct {
	setup, coreSetup float64 // s
	wall, cpu        float64 // s
	events           uint64
	peakMem          float64 // B, memory the runtime holds from the OS
	peakLive         float64 // B, live heap after a collection
	allocBytes       float64 // B
	gcCycles         float64
	fallbacks        float64
	profiled         bool
	layerCPU         map[string]float64 // s, profiled iterations only
	counts           map[string]float64
}

// runIteration sets up every cell, then runs them one after another. Each
// run starts from a collected heap and is measured alone, so a cell's cost
// does not depend on which cells ran before it in the seed's order.
func runIteration(w workload, cells []*cell, profiled bool, t *tally) (iteration, error) {
	it := iteration{profiled: profiled, counts: map[string]float64{}}
	if profiled {
		it.layerCPU = map[string]float64{}
	}
	fb0 := fallbackTotal()
	var runs []built
	it.setup, it.coreSetup, runs = setUp(cells)

	mem := startMemSampler()
	outs := make([]outcome, len(cells))
	errs := make([]error, len(cells))
	for i, r := range runs {
		runtime.GC()
		var prof bytes.Buffer
		if profiled {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				mem.stop()
				return it, fmt.Errorf("cpu profile: %w", err)
			}
		}
		m0 := readMetrics()
		cpu0 := cpuSeconds()
		ev0 := sim.TotalEventsExecuted()
		start := time.Now()
		outs[i], errs[i] = r.exec()
		it.wall += since(start)
		it.events += sim.TotalEventsExecuted() - ev0
		cpu := cpuSeconds() - cpu0
		it.cpu += cpu
		m1 := readMetrics()
		it.allocBytes += m1.allocBytes - m0.allocBytes
		it.gcCycles += m1.gcCycles - m0.gcCycles
		if profiled {
			pprof.StopCPUProfile()
			samples, err := parseCPUProfile(&prof)
			if err != nil {
				mem.stop()
				return it, err
			}
			for l, v := range layerShares(samples, cpu) {
				it.layerCPU[l] += v
			}
		}
	}
	it.peakMem, it.peakLive = mem.stop()
	it.fallbacks = fallbackTotal() - fb0

	byName := map[string]outcome{}
	for i, c := range cells {
		t.check(c, outs[i], errs[i])
		if errs[i] != nil {
			continue
		}
		byName[c.name] = outs[i]
		for k, v := range outs[i].counts {
			it.counts[k] += v
		}
		it.counts["sim.procs"] += float64(outs[i].procs)
	}
	if w.derive != nil {
		for k, v := range w.derive(byName) {
			it.counts[k] = v
		}
	}
	return it, nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func fallbackTotal() float64 {
	var n uint64
	for _, f := range core.FallbackCounts() {
		n += f.Count
	}
	return float64(n)
}

type runtimeMetrics struct{ allocBytes, gcCycles float64 }

func readMetrics() runtimeMetrics {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeMetrics{allocBytes: float64(s[0].Value.Uint64()), gcCycles: float64(s[1].Value.Uint64())}
}

// memSampler records, while it runs, the highest memory the Go runtime
// holds from the operating system (everything it mapped less what it
// released: heap, goroutine stacks, runtime metadata), and the highest live
// heap a collection reported. The first is the footprint a user's machine
// must hold. The second is sampled only when a collection ends, so its peak
// depends on where collections fall and moves by a quarter between runs of
// a paper-scale cell.
type memSampler struct {
	done      chan struct{}
	wg        sync.WaitGroup
	mem, live uint64
	samples   []metrics.Sample
}

func startMemSampler() *memSampler {
	m := &memSampler{done: make(chan struct{}), samples: []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			m.sample()
			select {
			case <-m.done:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	metrics.Read(m.samples)
	mem := m.samples[0].Value.Uint64() - m.samples[1].Value.Uint64()
	m.mem = max(m.mem, mem)
	m.live = max(m.live, m.samples[2].Value.Uint64())
}

// stop ends sampling and returns the peaks, sampling once more so a
// collection that finished after the last tick still counts.
func (m *memSampler) stop() (mem, live float64) {
	close(m.done)
	m.wg.Wait()
	m.sample()
	return float64(m.mem), float64(m.live)
}

// summary is a run's metrics: per-iteration medians, with the quartiles
// of the end-to-end ones.
type summary struct {
	iterations, profiled int
	values               map[string]float64
	q1, q3               map[string]float64
}

func summarize(iters []iteration, setups []float64, t *tally) summary {
	s := summary{iterations: len(iters), values: map[string]float64{}, q1: map[string]float64{}, q3: map[string]float64{}}
	series := map[string][]float64{}
	var profiledWall []float64
	layerSum := map[string]float64{}
	for _, it := range iters {
		if it.profiled {
			s.profiled++
			profiledWall = append(profiledWall, it.wall)
			for k, v := range it.layerCPU {
				layerSum[k] += v
			}
		} else {
			series["wall_s"] = append(series["wall_s"], it.wall)
			series["events_per_s"] = append(series["events_per_s"], float64(it.events)/it.wall)
			series["cpu_s"] = append(series["cpu_s"], it.cpu)
			series["peak_mem_bytes"] = append(series["peak_mem_bytes"], it.peakMem)
			series["gc.peak_live_heap_bytes"] = append(series["gc.peak_live_heap_bytes"], it.peakLive)
		}
		series["core.setup_s"] = append(series["core.setup_s"], it.coreSetup)
		series["sim.events"] = append(series["sim.events"], float64(it.events))
		if it.events > 0 {
			series["gc.alloc_bytes_per_event"] = append(series["gc.alloc_bytes_per_event"], it.allocBytes/float64(it.events))
		}
		series["gc.cycles"] = append(series["gc.cycles"], it.gcCycles)
		series["core.fallbacks"] = append(series["core.fallbacks"], it.fallbacks)
		for k, v := range it.counts {
			series[k] = append(series[k], v)
		}
		if r := it.counts["core.parallel_requested"]; r > 0 {
			series["core.parallel_admit_ratio"] = append(series["core.parallel_admit_ratio"], it.counts["core.parallel_admitted"]/r)
		}
		if r := it.counts["core.hybrid_requested"]; r > 0 {
			series["core.hybrid_admit_ratio"] = append(series["core.hybrid_admit_ratio"], it.counts["core.hybrid_admitted"]/r)
		}
	}
	series["setup_s"] = setups
	for k, xs := range series {
		s.q1[k], s.values[k], s.q3[k] = quartiles(xs)
	}
	if s.profiled > 0 {
		for _, l := range layers {
			s.values[l+".cpu_s"] = layerSum[l] / float64(s.profiled)
		}
		if plain := series["wall_s"]; len(plain) > 0 {
			s.values["trace.overhead_ratio"] = median(profiledWall) / median(plain)
		}
	}
	if t.attempted > 0 {
		s.values["cells.failed_frac"] = float64(t.failed) / float64(t.attempted)
	}
	s.values["sim.shard_divergent_cells"] = float64(len(t.divergent))
	return s
}

// print writes the human-readable report: every metric by name and unit,
// with the quartiles over iterations where there are several.
func (s summary) print(w io.Writer, t *tally) {
	fmt.Fprintf(w, "# iterations=%d profiled=%d cells attempted=%d failed=%d cells missing by a known defect=%d\n",
		s.iterations, s.profiled, t.attempted, t.failed, len(t.divergent))
	fmt.Fprintf(w, "# %-28s %-8s %14s %14s %14s\n", "end-to-end", "unit", "median", "q1", "q3")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "# %-28s %-8s %14.6g %14.6g %14.6g\n", d.name, d.unit, s.values[d.name], s.q1[d.name], s.q3[d.name])
	}
	fmt.Fprintf(w, "# %-28s %-8s %14.6g\n", "failed_frac", "ratio", s.values["cells.failed_frac"])
	if v, ok := s.values["apps.analytic_err_pct"]; ok {
		fmt.Fprintf(w, "# %-28s %-8s %14.6g\n", "analytic_err_pct", "%", v)
	}
	if s.profiled == 0 {
		return
	}
	fmt.Fprintf(w, "# %-28s %-8s %14s  %s\n", "per-layer", "unit", "value", "should move")
	for _, d := range perLayer {
		fmt.Fprintf(w, "# %-28s %-8s %14.6g  %s\n", d.name, d.unit, s.values[d.name], d.moves)
	}
	for _, f := range core.FallbackCounts() {
		fmt.Fprintf(w, "# fallback: %s %q ×%d\n", f.Kind, f.Reason, f.Count)
	}
}
