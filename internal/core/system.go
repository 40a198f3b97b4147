// Package core assembles the full simulated Cray XT3/XT4 system (and the
// comparison platforms): compute nodes with shared per-socket memory
// resources, the interconnect fabric, task placement in single-node (SN) or
// virtual-node (VN) mode, and the roofline-style compute-cost model used by
// every benchmark and application proxy.
//
// This package is the paper's "system under test" in executable form: an
// experiment creates a System for a machine/mode/task-count triple, runs a
// program on its ranks, and reads simulated wall-clock time.
package core

import (
	"fmt"
	"math/rand"

	"xtsim/internal/critpath"
	"xtsim/internal/machine"
	"xtsim/internal/network"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/timeline"
)

// Node is one compute node: a socket whose cores share the memory system.
// The two processor-sharing resources embody the paper's central
// observation — streaming bandwidth and random-access throughput are
// per-socket, not per-core, so EP-mode and VN-mode runs halve the per-core
// share (Figures 6, 7).
type Node struct {
	ID int
	// Stream is the socket's achievable streaming bandwidth in bytes/s,
	// shared between concurrently streaming cores.
	Stream *sim.PSResource
	// Random is the socket's random-access throughput in updates/s,
	// shared between cores performing latency-bound access.
	Random *sim.PSResource
}

// System is one experiment instance: a machine, a run mode, and a set of
// MPI tasks placed onto nodes.
type System struct {
	Eng    *sim.Engine
	M      machine.Machine
	Mode   machine.Mode
	Fabric *network.Fabric
	Nodes  []*Node

	// NumTasks is the number of MPI tasks (ranks).
	NumTasks int
	// TasksPerNode is 1 in SN mode and CoresPerNode in VN mode.
	TasksPerNode int
	// placement maps task id -> slot (node*TasksPerNode + core). The
	// default is the identity (rank order fills nodes, the ALPS default
	// on the XT); SetPlacement installs an alternative.
	placement []int

	// NoiseAmp optionally adds OS-jitter to compute phases as a uniform
	// multiplicative perturbation in [0, NoiseAmp]. Catamount was designed
	// to eliminate jitter (§2), so XT experiments leave this zero; it
	// exists for the full-Linux counterfactual ablation.
	NoiseAmp float64
	// Tracer, when non-nil, receives a span for every compute phase (and,
	// via the mpi package, every MPI operation), with simulated
	// timestamps. internal/trace provides a recorder and exporters.
	Tracer Tracer
	// Tel is the telemetry collection point, nil until EnableTelemetry.
	// Layers that come up afterwards (mpi.NewWorld) check it and attach
	// their collectors; with Tel nil every instrumented hot path pays one
	// nil check and nothing else.
	Tel *telemetry.Set
	// CP is the critical-path recorder, nil until EnableCritPath. Like
	// Tel, layers that come up afterwards (mpi.NewWorld) check it and
	// attach; with CP nil the instrumented hot paths pay one nil check.
	CP *critpath.Recorder
	// Tl is the timeline flight recorder, nil until EnableTimeline — the
	// same nil-gate idiom as Tel/CP. Under the sharded scheduler each
	// domain samples into its own collector and Run folds them
	// deterministically after the terminal window barrier (DESIGN.md §4k).
	Tl *timeline.Recorder
	// Rng drives noise; owned by the experiment for reproducibility.
	Rng *rand.Rand

	// Fast-path admission state (admission.go). parShards and hybWant are
	// the standing requests, par and hybTier what Admit engaged for them;
	// the reasons say why a request is declined, and the *Revoked reasons
	// are run-time revocations (DisableParallel/DisableHybrid), which
	// stick.
	parShards             int
	par                   *parRun
	parReason, parRevoked string
	hybWant, hybTier      HybridTier
	hybReason, hybRevoked string

	// ioAttached marks that an I/O subsystem (lustre filesystem, checkpoint
	// writer) registered itself via AttachIO. ioReport, when non-nil,
	// contributes the I/O section of TelemetryReport.
	ioAttached bool
	ioReport   func(horizon float64) *telemetry.IOReport
}

// NewSystem builds a system for nTasks MPI tasks on machine m in the given
// mode. In SN mode each task has a node to itself; in VN mode tasks pack
// CoresPerNode to a node. Single-core machines treat both modes
// identically.
func NewSystem(m machine.Machine, mode machine.Mode, nTasks int) *System {
	return NewSystemSIO(m, mode, nTasks, 0)
}

// NewSystemSIO builds a system whose torus also carries sioNodes reserved
// service-I/O nodes at the top of the node-id range (network.NewWithSIO).
// Compute tasks place onto nodes [0, nNodes) exactly as in NewSystem; the
// Lustre layer places its OSS servers on the SIO partition, so checkpoint
// and I/O traffic crosses real torus links and contends with compute-phase
// messages.
func NewSystemSIO(m machine.Machine, mode machine.Mode, nTasks, sioNodes int) *System {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if nTasks < 1 {
		panic(fmt.Sprintf("core: nTasks = %d", nTasks))
	}
	if sioNodes < 0 {
		panic(fmt.Sprintf("core: sioNodes = %d", sioNodes))
	}
	tasksPerNode := 1
	if mode == machine.VN && m.CoresPerNode > 1 {
		tasksPerNode = m.CoresPerNode
	}
	nNodes := (nTasks + tasksPerNode - 1) / tasksPerNode
	if nNodes+sioNodes > m.TotalNodes {
		panic(fmt.Sprintf("core: %d tasks in %v mode plus %d SIO nodes needs %d nodes but %s has %d",
			nTasks, mode, sioNodes, nNodes+sioNodes, m.Name, m.TotalNodes))
	}

	eng := sim.NewEngine()
	sys := &System{
		Eng:          eng,
		M:            m,
		Mode:         mode,
		Fabric:       network.NewWithSIO(eng, m, nNodes, sioNodes),
		NumTasks:     nTasks,
		TasksPerNode: tasksPerNode,
		Rng:          rand.New(rand.NewSource(1)),
	}
	sys.Nodes = make([]*Node, sys.Fabric.Tor.Nodes())
	for i := range sys.Nodes {
		sys.Nodes[i] = &Node{
			ID:     i,
			Stream: sim.NewPSResource(eng, m.Mem.StreamBW()),
			Random: sim.NewPSResource(eng, m.Mem.RandomRate()),
		}
	}
	return sys
}

// EnableTelemetry switches on the observability layer for this system:
// fabric byte counters now, MPI statistics when a World is created.
// Idempotent; call before creating the MPI world and before the traffic of
// interest. Returns the system for chaining.
func (s *System) EnableTelemetry() *System {
	if s.Tel == nil {
		s.Tel = &telemetry.Set{Fabric: s.Fabric.EnableTelemetry()}
		s.Admit()
	}
	return s
}

// TelemetryReport assembles the system's telemetry over [0, now]; nil
// unless EnableTelemetry was called.
func (s *System) TelemetryReport() *telemetry.Report {
	if s.Tel == nil {
		return nil
	}
	horizon := s.Eng.Now()
	rep := &telemetry.Report{
		SchemaVersion:  telemetry.SchemaVersion,
		HorizonSeconds: horizon,
		Fabric:         s.Fabric.TelemetryReport(horizon),
		MPI:            s.Tel.MPI.Report(),
	}
	if s.ioReport != nil {
		rep.IO = s.ioReport(horizon)
	}
	return rep
}

// EnableTimeline switches on the phase-resolved flight recorder: fabric
// reservations (links, NICs, VN proxies) are sampled into fixed
// simulated-time bins from now on, applications may emit phase spans via
// the MPI layer, and TimelineReport joins the two. Idempotent; call before
// creating the MPI world and before the traffic of interest. Returns the
// system for chaining.
func (s *System) EnableTimeline() *System {
	if s.Tl != nil {
		return s
	}
	s.Tl = timeline.NewRecorder(s.NumTasks)
	s.Tl.SetResources(timeline.Link, s.Fabric.NumLinks())
	s.Tl.SetResources(timeline.NIC, s.Fabric.Tor.Nodes())
	s.Tl.SetResources(timeline.VNProxy, s.Fabric.Tor.Nodes())
	if s.par != nil {
		s.Tl.Shard(s.par.part.NumDomains())
		s.Fabric.TimelineShard(s.Tl.Collectors())
	} else {
		s.Fabric.EnableTimeline(s.Tl.Dom(0))
	}
	s.Admit()
	return s
}

// TimelineReport folds the flight recorder (a no-op on serial runs) and
// assembles the deterministic timeline export over [0, horizon]; nil
// unless EnableTimeline was called. horizon is normally the makespan Run
// returned. Call after Run completes.
func (s *System) TimelineReport(horizon float64) *timeline.Report {
	if s.Tl == nil {
		return nil
	}
	return s.Tl.Report(horizon)
}

// EnableCritPath switches on causal recording for this system: the fabric
// records happens-before edges now, the MPI runtime records blocked
// segments when a World is created. Composable with EnableTelemetry.
// Idempotent; call before creating the MPI world. Returns the system for
// chaining. The recorder uses critpath.DefaultCap; build a
// critpath.NewRecorder and assign CP directly to choose another cap.
func (s *System) EnableCritPath() *System {
	if s.CP == nil {
		s.CP = critpath.NewRecorder(s.NumTasks, 0)
		s.Fabric.EnableCritPath(s.CP)
		s.Admit()
	}
	return s
}

// AttachIO registers an I/O subsystem (a Lustre filesystem, typically via
// lustre.Attach) with the system and re-checks admission at once, so a
// fast path the filesystem rules out is gone when AttachIO returns.
// report, when non-nil, supplies the I/O section of TelemetryReport.
func (s *System) AttachIO(report func(horizon float64) *telemetry.IOReport) {
	s.ioAttached = true
	if report != nil {
		s.ioReport = report
	}
	s.Admit()
}

// CritPathReport walks the recorded causal graph backwards from the
// current simulated time and returns the critical-path attribution; nil
// unless EnableCritPath was called. Call after Run completes.
func (s *System) CritPathReport() *critpath.Report {
	if s.CP == nil {
		return nil
	}
	return s.CP.Analyze(critpath.AnalyzeOptions{
		Makespan:  s.Eng.Now(),
		LinkLabel: s.Fabric.LinkLabel,
	})
}

// Place maps a task id to its (node, core).
func (s *System) Place(task int) (node, coreIdx int) {
	if task < 0 || task >= s.NumTasks {
		panic(fmt.Sprintf("core: task %d out of range [0,%d)", task, s.NumTasks))
	}
	slot := task
	if s.placement != nil {
		slot = s.placement[task]
	}
	return slot / s.TasksPerNode, slot % s.TasksPerNode
}

// SetPlacement installs a task-to-slot permutation (slot = node index ×
// TasksPerNode + core index). Placement quality mattered operationally on
// the XT machines: the paper notes PTRANS variance "due to job layout
// topology" (§5.1.3). Must be called before Run; perm must be a
// permutation of [0, NumTasks).
func (s *System) SetPlacement(perm []int) {
	if len(perm) != s.NumTasks {
		panic(fmt.Sprintf("core: placement length %d != %d tasks", len(perm), s.NumTasks))
	}
	seen := make([]bool, s.NumTasks)
	for _, slot := range perm {
		if slot < 0 || slot >= s.NumTasks || seen[slot] {
			panic(fmt.Sprintf("core: placement is not a permutation (slot %d)", slot))
		}
		seen[slot] = true
	}
	s.placement = append([]int(nil), perm...)
}

// TaskMemBytes reports the memory available to one task: the node memory
// divided by the tasks sharing it (VN mode splits memory evenly — §2).
func (s *System) TaskMemBytes() int64 {
	nodeMem := s.M.Mem.BytesPerCore * int64(s.M.CoresPerNode)
	return nodeMem / int64(s.TasksPerNode)
}

// Tracer receives activity spans from the simulation; implemented by
// trace.Recorder.
type Tracer interface {
	Record(rank int, name string, start, end float64)
}

// Rank is one MPI task's execution context inside the simulation.
type Rank struct {
	sys  *System
	Proc *sim.Proc
	// ID is the MPI rank.
	ID int
	// NodeID and Core locate the task on the machine.
	NodeID int
	Core   int
	// hc is the rank's private clock on the hybrid fast path, nil for
	// DES ranks (see hybrid.go).
	hc *HybClock
}

// Run spawns body for every task and runs the simulation to completion,
// returning the simulated makespan in seconds.
func (s *System) Run(body func(r *Rank)) sim.Time {
	for t := 0; t < s.NumTasks; t++ {
		node, coreIdx := s.Place(t)
		r := &Rank{sys: s, ID: t, NodeID: node, Core: coreIdx}
		// In parallel mode each rank lives on its node's slab engine; in
		// serial mode EngFor is the system engine for every node.
		s.EngFor(node).Spawn(fmt.Sprintf("rank%d", t), func(p *sim.Proc) {
			r.Proc = p
			body(r)
			if s.CP != nil {
				// The analyzer starts its backward walk at the
				// latest-finishing rank and counts trailing idle as slack.
				s.CP.SetFinish(r.ID, p.Now())
			}
		})
	}
	if s.par != nil {
		end := s.par.sh.Run()
		s.Fabric.FoldParallel()
		if s.Tl != nil {
			// Workers have joined (Run returned after the terminal window
			// barrier), so the per-domain collectors are quiescent; fold
			// them into the serial shape the exports read.
			s.Tl.Fold()
		}
		return end
	}
	return s.Eng.Run()
}

// System returns the owning system.
func (r *Rank) System() *System { return r.sys }

// Node returns the node this rank runs on.
func (r *Rank) Node() *Node { return r.sys.Nodes[r.NodeID] }

// Now reports the current simulated time.
func (r *Rank) Now() sim.Time {
	if r.hc != nil {
		return r.hc.T
	}
	return r.Proc.Now()
}

// Work describes one compute phase in roofline terms. The three demand
// classes map onto the HPCC locality taxonomy the paper uses (§5.1):
// temporal-locality work is flop-bound, spatial-locality work is
// stream-bound, and no-locality work is latency-bound.
type Work struct {
	// Flops is the floating-point operation count.
	Flops float64
	// FlopEff is the achievable fraction of per-core peak for this kernel
	// (≈ 0.88 for DGEMM, much lower for sparse or irregular code). Zero
	// means "use the machine's DGEMM efficiency".
	FlopEff float64
	// StreamBytes is the DRAM traffic with streaming (prefetchable)
	// access, charged against the socket's shared streaming bandwidth.
	StreamBytes float64
	// RandomAccesses is the count of independent latency-bound accesses,
	// charged against the socket's shared random-access throughput.
	RandomAccesses float64
	// LoopLen, when nonzero on a vector machine, derates flop efficiency
	// for short vector lengths (the paper notes vector lengths below 128
	// limiting X1E/ES performance at 960 tasks in Figure 15).
	LoopLen int
}

// flopTime returns the pure compute time of w on machine m.
func (w Work) flopTime(m machine.Machine) float64 {
	if w.Flops <= 0 {
		return 0
	}
	eff := w.FlopEff
	if eff == 0 {
		eff = m.CPU.DGEMMEff
	}
	if m.CPU.VectorLen > 0 && w.LoopLen > 0 {
		// Hockney-style n½ model: efficiency = n/(n + n½) with n½ of
		// roughly half the hardware vector length.
		nHalf := float64(m.CPU.VectorLen) / 2
		eff *= float64(w.LoopLen) / (float64(w.LoopLen) + nHalf)
	}
	rate := m.CPU.PeakGF() * 1e9 * eff
	return w.Flops / rate
}

// Compute executes one compute phase: the flop time passes unshared (each
// core has its own pipelines), while memory demands are served by the
// node's shared resources. The phases are sequential (no overlap), which
// is the conservative non-overlapped roofline; calibration constants
// absorb the difference.
func (r *Rank) Compute(w Work) {
	if r.hc != nil {
		r.hybCompute(w)
		return
	}
	tr := r.sys.Tracer
	var start sim.Time
	if tr != nil {
		start = r.Proc.Now()
	}
	ft := w.flopTime(r.sys.M)
	if r.sys.NoiseAmp > 0 {
		ft *= 1 + r.sys.NoiseAmp*r.sys.Rng.Float64()
	}
	if ft > 0 {
		r.Proc.Wait(ft)
	}
	if w.StreamBytes > 0 {
		r.Node().Stream.Consume(r.Proc, w.StreamBytes)
	}
	if w.RandomAccesses > 0 {
		r.Node().Random.Consume(r.Proc, w.RandomAccesses)
	}
	if tr != nil {
		tr.Record(r.ID, "compute", start, r.Proc.Now())
	}
}

// ComputeSeconds blocks the rank for an explicit pre-computed duration;
// used when a proxy has already folded its cost model into seconds.
func (r *Rank) ComputeSeconds(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("core: negative compute time %g", d))
	}
	if r.hc != nil {
		r.hc.T += d
		return
	}
	if d > 0 {
		r.Proc.Wait(d)
	}
}

// EstimateSeconds returns the time Compute would take with no contention
// (all shared resources idle and un-shared). Used by analytic fast paths.
func (r *Rank) EstimateSeconds(w Work) float64 {
	t := w.flopTime(r.sys.M)
	if w.StreamBytes > 0 {
		t += w.StreamBytes / r.sys.M.Mem.StreamBW()
	}
	if w.RandomAccesses > 0 {
		t += w.RandomAccesses / r.sys.M.Mem.RandomRate()
	}
	return t
}
