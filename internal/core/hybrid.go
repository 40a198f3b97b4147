package core

// Hybrid rank execution (DESIGN.md §4i): a run admitted to hybrid mode
// skips coroutine-per-rank discrete-event scheduling entirely — every rank
// advances a private clock through closed-form pricing of its compute and
// communication, meeting the other ranks only at matching and collective
// points. HybridExact prices through the DES fabric's own send-side walk
// against a session-private link/NIC ledger and is bit-identical to the
// DES; HybridAnalytic charges the uncontended closed form and shares node
// memory bandwidth uniformly, an approximation rather than an equivalence.
// The moment an exact run observes anything its ledger cannot prove (a
// link touched by two ranks), the whole run aborts before any result is
// produced and re-runs under the full DES.

// HybridTier selects the hybrid fast-path flavour.
type HybridTier int

const (
	// HybridOff runs the ordinary coroutine-per-rank DES.
	HybridOff HybridTier = iota
	// HybridExact is the bit-identical ledger-priced fast path.
	HybridExact
	// HybridAnalytic is the closed-form approximate fast path.
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

// EnableHybrid requests the hybrid fast path at the given tier and reports
// whether it is engaged; the admission table decides (admission.go), and
// HybridReason says why not (mirroring EnableParallel/ParallelReason). The
// MPI layer may still fall back at run time (exact-tier ledger violation);
// it calls DisableHybrid itself and the run restarts on the DES.
func (s *System) EnableHybrid(tier HybridTier) bool {
	if s.hybTier != HybridOff {
		return true
	}
	s.hybWant = tier
	s.hybReason = "hybrid off requested"
	if tier != HybridOff {
		if s.Admit(); s.hybTier != HybridOff {
			return true
		}
	}
	recordFallback("hybrid", s.hybReason)
	return false
}

// DisableHybrid reverts the system to the DES for good, recording why
// (surfaced by HybridReason; reason must be non-empty). A no-op when
// already off.
func (s *System) DisableHybrid(reason string) {
	if s.hybTier != HybridOff {
		s.hybRevoked = reason
		s.Admit()
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
