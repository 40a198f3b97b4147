package core

import (
	"cmp"
	"fmt"
	"sort"
	"sync"

	"xtsim/internal/machine"
	"xtsim/internal/network"
	"xtsim/internal/sim"
	"xtsim/internal/torus"
)

// Fast-path admission (DESIGN.md §4l): the sharded scheduler and the
// hybrid rank path run only while no row of admissionTable declines them,
// and Admit re-derives both verdicts from the system's state, so the order
// of the calls that built that state does not matter.

// Fast paths, indexing admitRow.why.
const (
	pathParallel = iota
	pathExact
	pathAnalytic
	numPaths
)

// admitRow is one admission condition: while holds reports true, each
// fast path with a non-empty why entry declines with that reason; an empty
// entry means this row does not decline that path.
type admitRow struct {
	cond  string
	holds func(s *System) bool
	why   [numPaths]string
}

// admissionTable states every admission rule. A declined path reports the
// first row that holds with a reason for it, so the row order fixes which
// reason a system with several conditions names.
var admissionTable = [...]admitRow{
	{"not a torus", func(s *System) bool { return s.M.Topology != machine.Torus3D },
		why("machine is not a torus", "machine is not a torus")},
	{"VN placement", func(s *System) bool { return s.TasksPerNode != 1 },
		why("VN placement shares the NIC proxy core across slabs", "")},
	// A run-time revocation still counts: the hybrid request was declined
	// in the sharded scheduler's favour before the run began.
	{"sharded scheduler active", func(s *System) bool { return s.par != nil || s.parRevoked != "" },
		why("", "sharded scheduler owns rank execution")},
	{"telemetry", func(s *System) bool { return s.Tel != nil },
		why("telemetry aggregation is cross-domain shared state", "telemetry aggregation needs per-event records")},
	{"critical path", func(s *System) bool { return s.CP != nil },
		why("critical-path recording is cross-domain shared state", "critical-path recording needs per-event records")},
	{"tracer", func(s *System) bool { return s.Tracer != nil },
		why("tracer ordering is cross-domain shared state", "tracer ordering needs the event schedule")},
	{"timeline", func(s *System) bool { return s.Tl != nil },
		why("", "timeline recording needs per-event reservation records")},
	{"noise", func(s *System) bool { return s.NoiseAmp > 0 },
		why("noise RNG is a shared sequential stream", "noise RNG is a shared sequential stream")},
	{"I/O attached", func(s *System) bool { return s.ioAttached },
		why("I/O subsystem resources (MDS, OSS/OST) are engine-global shared state",
			"I/O subsystem resources (MDS, OSS/OST) are engine-global shared state")},
	{"VN placement, exact tier", func(s *System) bool { return s.TasksPerNode != 1 },
		[numPaths]string{pathExact: "VN placement queues on the shared NIC proxy core"}},
}

// why gives a row's reasons: one for the parallel path, one for both
// hybrid tiers.
func why(parallel, hybrid string) [numPaths]string {
	return [numPaths]string{parallel, hybrid, hybrid}
}

// declined returns the reason the table declines path on s, "" if none.
func (s *System) declined(path int) string {
	for i := range admissionTable {
		if r := &admissionTable[i]; r.why[path] != "" && r.holds(s) {
			return r.why[path]
		}
	}
	return ""
}

// Admit re-derives both fast-path verdicts from the admission table,
// engaging or revoking them to match the system's current state. Every
// Enable*/AttachIO call runs it; mpi.Run and mpi.NewWorld run it once
// more before sizing anything per domain, which catches plain field
// writes (Tracer, NoiseAmp) made after a fast path was requested. A
// revocation is counted in the fallback ledger.
func (s *System) Admit() {
	if s.parShards > 0 {
		reason := s.declined(pathParallel)
		var part torus.Partition
		if reason == "" && s.par == nil {
			part = torus.NewPartition(s.Fabric.Tor, s.parShards)
			if part.NumDomains() < 2 {
				reason = fmt.Sprintf("torus %v has a single plane on the slab axis", s.Fabric.Tor)
			}
		}
		s.parReason = cmp.Or(reason, s.parRevoked)
		switch {
		case s.parReason == "" && s.par == nil:
			s.engageParallel(part)
		case s.parReason != "" && s.par != nil:
			s.disengageParallel()
			recordFallback("parallel", s.parReason)
		}
	}
	if s.hybWant != HybridOff {
		path := pathExact
		if s.hybWant == HybridAnalytic {
			path = pathAnalytic
		}
		s.hybReason = cmp.Or(s.declined(path), s.hybRevoked)
		switch {
		case s.hybReason == "":
			s.hybTier = s.hybWant
		case s.hybTier != HybridOff:
			s.hybTier = HybridOff
			recordFallback("hybrid", s.hybReason)
		}
	}
}

// engageParallel moves the system onto the sharded scheduler over part.
func (s *System) engageParallel(part torus.Partition) {
	sh := sim.NewSharded(part.NumDomains(), network.Lookahead(s.M))
	s.par = &parRun{sh: sh, part: part}
	s.Fabric.EnableParallel(sh, part)
	if s.Tl != nil {
		// Timeline recording stays on under sharding: each domain gets a
		// private collector, folded deterministically after the run
		// (DESIGN.md §4k).
		s.Tl.Shard(part.NumDomains())
		s.Fabric.TimelineShard(s.Tl.Collectors())
	}
	s.rebindNodeResources()
}

// disengageParallel returns the system to the serial engine.
func (s *System) disengageParallel() {
	s.par = nil
	s.Fabric.DisableParallel()
	if s.Tl != nil {
		// Back to serial shape: fold the (traffic-free) domain collectors
		// and reinstall the single collector on the serial fabric path.
		s.Tl.Unshard()
		s.Fabric.EnableTimeline(s.Tl.Dom(0))
	}
	s.rebindNodeResources()
}

// Process-wide fallback ledger: every declined request and every revoked
// fast path counts its (kind, reason) pair, so a long-running `xtsim
// -serve` can expose *why* its jobs ran serially on /metrics. The counters
// are cumulative for the process lifetime, like sim.TotalEventsExecuted.

// FallbackCount is one (kind, reason) cell of the fallback ledger.
type FallbackCount struct {
	// Kind is the fast path involved: "parallel" or "hybrid".
	Kind string `json:"kind"`
	// Reason is the admission/fallback reason string, verbatim.
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

var (
	fallbackMu sync.Mutex
	fallbacks  = map[FallbackCount]uint64{}
)

// recordFallback counts one decline or revocation.
func recordFallback(kind, reason string) {
	fallbackMu.Lock()
	fallbacks[FallbackCount{Kind: kind, Reason: reason}]++
	fallbackMu.Unlock()
}

// FallbackCounts returns the process's cumulative fast-path fallback
// counters, sorted by (kind, reason) for deterministic export.
func FallbackCounts() []FallbackCount {
	fallbackMu.Lock()
	out := make([]FallbackCount, 0, len(fallbacks))
	for key, n := range fallbacks {
		key.Count = n
		out = append(out, key)
	}
	fallbackMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Reason < out[j].Reason
	})
	return out
}
