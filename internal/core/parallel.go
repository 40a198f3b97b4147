package core

import (
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/torus"
)

// parRun is the system's parallel-scheduling state, nil in serial mode.
type parRun struct {
	sh   *sim.ShardedEngine
	part torus.Partition
}

// EnableParallel requests the conservative parallel scheduler on `shards`
// sharded torus domains (sim.ShardedEngine + torus.Partition + the
// fabric's sharded delivery; DESIGN.md §4h) and reports whether the
// admission table engaged it; ParallelReason says why not. mpi.Run calls
// DisableParallel for runs whose analytic collectives meet through
// engine-global state.
func (s *System) EnableParallel(shards int) bool {
	if s.par != nil {
		return true
	}
	s.parShards = 0
	s.parReason = "fewer than 2 shards requested"
	if shards >= 2 {
		s.parShards = shards
		if s.Admit(); s.par != nil {
			return true
		}
	}
	recordFallback("parallel", s.parReason)
	return false
}

// DisableParallel reverts the system to the serial engine for good,
// recording why (surfaced by ParallelReason; reason must be non-empty). A
// no-op when already serial; must not be called once Run has started.
func (s *System) DisableParallel(reason string) {
	if s.par != nil {
		s.parRevoked = reason
		s.Admit()
	}
}

// ParallelEnabled reports whether the next Run uses the sharded scheduler.
func (s *System) ParallelEnabled() bool { return s.par != nil }

// ParallelDomains reports the shard count (0 when serial).
func (s *System) ParallelDomains() int {
	if s.par == nil {
		return 0
	}
	return s.par.part.NumDomains()
}

// ParallelReason explains why the system is running serially after an
// EnableParallel attempt (empty when parallel engaged or never requested).
func (s *System) ParallelReason() string { return s.parReason }

// DomainOf maps a node to its scheduling domain (0 when serial).
func (s *System) DomainOf(node int) int {
	if s.par == nil {
		return 0
	}
	return s.par.part.DomainOf(node)
}

// NumDomains reports how many per-domain pools layers above should size
// for: the shard count in parallel mode, 1 in serial mode.
func (s *System) NumDomains() int {
	if s.par == nil {
		return 1
	}
	return s.par.part.NumDomains()
}

// EngFor returns the engine that owns a node's events: the node's slab
// engine in parallel mode, the system engine otherwise.
func (s *System) EngFor(node int) *sim.Engine {
	if s.par == nil {
		return s.Eng
	}
	return s.par.sh.Engine(s.par.part.DomainOf(node))
}

// rebindNodeResources rebuilds each node's processor-sharing resources on
// the engine that now owns the node, preserving capacities. PSResources
// schedule their own completion events, so they must live on the engine
// whose domain executes the node's ranks.
func (s *System) rebindNodeResources() {
	for i, n := range s.Nodes {
		eng := s.EngFor(i)
		n.Stream = sim.NewPSResource(eng, n.Stream.Capacity)
		n.Random = sim.NewPSResource(eng, n.Random.Capacity)
	}
}

// ParallelStats returns the per-domain window statistics of a completed
// sharded run (nil when serial). All fields except BarrierStallSeconds are
// deterministic; see sim.DomainStats.
func (s *System) ParallelStats() []sim.DomainStats {
	if s.par == nil {
		return nil
	}
	return s.par.sh.Stats()
}

// ParallelForeignHops reports route hops the sharded fabric priced without
// contention because they left the sending slab; zero means the run was in
// the byte-identical equivalence class (see network.Fabric.ForeignHops).
func (s *System) ParallelForeignHops() uint64 {
	return s.Fabric.ForeignHops()
}

// ParallelTelemetry assembles the sharded scheduler's window statistics as
// a telemetry export; nil when the run was serial. Call after Run. All
// fields except the barrier stalls are deterministic — strip those
// (telemetry.ParallelReport.StripWallClock) before embedding the report in
// deterministic output.
func (s *System) ParallelTelemetry() *telemetry.ParallelReport {
	if s.par == nil {
		return nil
	}
	stats := s.par.sh.Stats()
	msgs := s.Fabric.DomainMsgs()
	rep := &telemetry.ParallelReport{
		SchemaVersion:    telemetry.SchemaVersion,
		LookaheadSeconds: float64(s.par.sh.Lookahead()),
		ForeignHops:      s.Fabric.ForeignHops(),
		Domains:          make([]telemetry.DomainWindowStats, len(stats)),
	}
	for i, d := range stats {
		rep.Domains[i] = telemetry.DomainWindowStats{
			Domain:              d.Domain,
			Windows:             d.Windows,
			Events:              d.Events,
			PostsOut:            d.PostsOut,
			PostsIn:             d.PostsIn,
			BarrierStallSeconds: d.BarrierStallSeconds,
		}
		if i < len(msgs) {
			rep.Domains[i].MsgsDelivered = msgs[i]
		}
	}
	return rep
}
