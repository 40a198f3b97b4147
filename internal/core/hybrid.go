package core

import (
	"xtsim/internal/machine"
)

// Hybrid rank execution (DESIGN.md §4i): a run admitted to hybrid mode
// skips coroutine-per-rank discrete-event scheduling entirely — every rank
// advances a private clock through closed-form pricing of its compute and
// communication, meeting the other ranks only at matching and collective
// points. The tier decides how conservative the pricing is:
//
//   - HybridExact prices every transfer with the same reservation
//     arithmetic the DES fabric uses, tracking link/NIC busy state in a
//     session-private ledger. It is admitted only when the ledger can be
//     proven equivalent to the event-driven schedule (single task per
//     node, and — enforced during the run — at most one rank's traffic
//     per link); the result is bit-identical to the full DES.
//   - HybridAnalytic prices transfers with the uncontended closed form
//     (the same formulas validated by the analytic collective model) and
//     shares node memory bandwidth uniformly between a node's ranks. It
//     admits VN placement and is an approximation, not an equivalence.
//
// The promotion rule is conservative and run-scoped: the moment an exact
// run observes anything its ledger cannot prove (a link touched by two
// ranks), the whole run aborts before any result is produced and re-runs
// under the full DES — "promoted to DES before any timing divergence".
// `-hybrid=off` (the default) bypasses all of this.

// HybridTier selects the hybrid fast-path flavour.
type HybridTier int

const (
	// HybridOff runs the ordinary coroutine-per-rank DES.
	HybridOff HybridTier = iota
	// HybridExact is the bit-identical ledger-priced fast path (SN only).
	HybridExact
	// HybridAnalytic is the closed-form approximate fast path (VN allowed).
	HybridAnalytic
)

func (t HybridTier) String() string {
	switch t {
	case HybridExact:
		return "exact"
	case HybridAnalytic:
		return "analytic"
	default:
		return "off"
	}
}

// HybClock is a hybrid rank's private simulated clock. The MPI hybrid
// runtime advances T through the same floating-point operations the DES
// would perform, in the same order, which is what makes the exact tier
// bit-identical rather than merely close.
type HybClock struct {
	T float64
}

// EnableHybrid asks the system to run ranks on the hybrid fast path at the
// given tier. It reports whether hybrid mode engaged; outside the
// admission envelope the system stays on the DES and HybridReason explains
// why (mirroring EnableParallel/ParallelReason).
//
// Admission requires: a torus machine; the serial engine (the sharded
// scheduler owns rank execution); no telemetry, critical-path recording,
// or tracer (hybrid ranks produce no per-event records to aggregate); no
// compute noise (the noise RNG is a shared sequential stream with no
// deterministic hybrid order); and, for the exact tier, SN placement
// (VN shares the NIC proxy core, whose queueing is arrival-ordered and
// cannot be priced from a per-rank ledger).
//
// Call after NewSystem and any Enable* calls, before mpi.Run. The MPI
// layer may still fall back at run time (exact-tier ledger violation);
// it calls DisableHybrid itself and the run restarts on the DES.
func (s *System) EnableHybrid(tier HybridTier) bool {
	if s.hybTier != HybridOff {
		return true
	}
	reason := ""
	switch {
	case tier == HybridOff:
		reason = "hybrid off requested"
	case s.M.Topology != machine.Torus3D:
		reason = "machine is not a torus"
	case s.par != nil:
		reason = "sharded scheduler owns rank execution"
	case s.Tel != nil:
		reason = "telemetry aggregation needs per-event records"
	case s.CP != nil:
		reason = "critical-path recording needs per-event records"
	case s.Tracer != nil:
		reason = "tracer ordering needs the event schedule"
	case s.Tl != nil:
		reason = timelineHybridReason
	case s.NoiseAmp > 0:
		reason = "noise RNG is a shared sequential stream"
	case s.ioAttached:
		reason = ioSharedReason
	case tier == HybridExact && s.TasksPerNode != 1:
		reason = "VN placement queues on the shared NIC proxy core"
	}
	if reason != "" {
		s.hybReason = reason
		recordFallback("hybrid", reason)
		return false
	}
	s.hybTier = tier
	s.hybReason = ""
	return true
}

// DisableHybrid reverts the system to the DES, recording why (surfaced by
// HybridReason). Safe to call when already off.
func (s *System) DisableHybrid(reason string) {
	s.hybTier = HybridOff
	if reason != "" {
		s.hybReason = reason
		recordFallback("hybrid", reason)
	}
}

// HybridEnabled reports whether the next mpi.Run attempts the hybrid fast
// path.
func (s *System) HybridEnabled() bool { return s.hybTier != HybridOff }

// HybridTier reports the admitted tier (HybridOff when not enabled).
func (s *System) HybridTier() HybridTier { return s.hybTier }

// HybridReason explains why the system is (or ended up) running on the
// DES after an EnableHybrid attempt — empty when hybrid engaged or was
// never requested. Queryable like ParallelReason.
func (s *System) HybridReason() string { return s.hybReason }

// HybridRank builds a rank execution context for the hybrid fast path:
// the same placement and cost-model surface as a DES rank, but driven by
// a private HybClock instead of a sim.Proc. Used by the MPI hybrid
// runtime; application code sees an ordinary *Rank.
func (s *System) HybridRank(id int) *Rank {
	node, coreIdx := s.Place(id)
	return &Rank{sys: s, ID: id, NodeID: node, Core: coreIdx, hc: &HybClock{}}
}

// HybClock returns the rank's hybrid clock, nil for DES ranks.
func (r *Rank) HybClock() *HybClock { return r.hc }

// hybCompute prices one compute phase on the hybrid clock with the exact
// arithmetic of the DES path: flop time, then streaming, then random
// access, as three sequential clock advances (Compute's phases are
// sequential in the DES too). With one task per node each PSResource has
// a single consumer and the DES completion is now + amount/Capacity
// bit-for-bit; with VN packing the analytic tier charges the uniform
// share — every node-mate streaming concurrently — which is the DES
// steady state for the symmetric rank programs the tier admits.
func (r *Rank) hybCompute(w Work) {
	s := r.sys
	ft := w.flopTime(s.M)
	r.hc.T += ft
	share := 1.0
	if s.hybTier == HybridAnalytic {
		share = float64(s.TasksPerNode)
	}
	if w.StreamBytes > 0 {
		r.hc.T += w.StreamBytes * share / s.M.Mem.StreamBW()
	}
	if w.RandomAccesses > 0 {
		r.hc.T += w.RandomAccesses * share / s.M.Mem.RandomRate()
	}
}
