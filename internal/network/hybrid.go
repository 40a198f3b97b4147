package network

import (
	"sync"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
)

// HybridSession prices transfers for the hybrid fast path (core hybrid.go,
// DESIGN.md §4i) without touching the fabric's event engine or resource
// state. In the exact tier it replays the DES reservation arithmetic of
// deliverRemote against a session-private busy ledger — bit-identical as
// long as every link and injection port stays single-owner, which the
// ledger enforces; in the analytic tier it charges the uncontended closed
// form (every reservation granted at its request time). Because the ledger
// is session-private and counters commit only on success, an aborted
// session leaves the fabric pristine for the DES re-run.
type HybridSession struct {
	f     *Fabric
	exact bool

	// mu serialises pricing: ranks call Price concurrently from their own
	// goroutines. One mutex is deliberate — the hybrid win is skipping the
	// event heap and process switching, not lock-free pricing, and a
	// single lock keeps the ledger and route cache trivially consistent.
	mu sync.Mutex

	// Exact-tier busy ledger: mirrors sim.FIFOResource.Reserve per link
	// and injection port, with an owner (rank+1, 0 = unclaimed) proving
	// the single-owner condition that makes the replay exact.
	linkBusy  []sim.Time
	linkOwner []int32
	txBusy    []sim.Time
	txOwner   []int32

	violated bool
	reason   string

	msgs, bytes uint64
}

// BeginHybrid opens a pricing session on the fabric, or declines with a
// reason when links are degraded (per-link derates are fault-injection
// state the closed forms do not model). The rest of hybrid admission is
// core's admission table.
func (f *Fabric) BeginHybrid(exact bool) (*HybridSession, string) {
	if f.derate != nil {
		return nil, "degraded links require event-driven pricing"
	}
	s := &HybridSession{f: f, exact: exact}
	if exact {
		s.linkBusy = make([]sim.Time, f.Tor.NumLinks())
		s.linkOwner = make([]int32, f.Tor.NumLinks())
		s.txBusy = make([]sim.Time, f.Tor.Nodes())
		s.txOwner = make([]int32, f.Tor.Nodes())
	}
	return s, ""
}

// hybridViolationReason is the one fallback reason an exact session ever
// reports: which link tripped the ledger first depends on goroutine
// schedule, so a stable generic string keeps the fallback deterministic.
const hybridViolationReason = "link ownership violation (routes of concurrent ranks share a link)"

// Price computes the timeline of msg departing at time at from the given
// rank. ok=false means the exact ledger detected shared ownership — the
// session is dead (every later Price also fails) and the caller must abort
// the hybrid run.
func (s *HybridSession) Price(at sim.Time, msg Msg, rank int) (tl Timeline, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.violated {
		return Timeline{}, false
	}
	if msg.SrcNode == msg.DstNode {
		// Same arithmetic as the DES local path (pure, reservation-free).
		tl = s.f.deliverLocal(at, msg)
	} else if s.exact {
		tl, ok = s.priceExact(at, msg, rank)
		if !ok {
			s.violated = true
			s.reason = hybridViolationReason
			return Timeline{}, false
		}
	} else {
		tl = s.priceAnalytic(at, msg)
	}
	s.msgs++
	s.bytes += uint64(msg.Bytes)
	return tl, true
}

// claim checks/establishes single ownership of a ledger entry.
func claim(owner []int32, i int, rank int32) bool {
	switch owner[i] {
	case 0:
		owner[i] = rank + 1
		return true
	case rank + 1:
		return true
	}
	return false
}

// reserve mirrors sim.FIFOResource.Reserve against a ledger slot.
func reserve(busy []sim.Time, i int, at sim.Time, dur float64) sim.Time {
	start := at
	if busy[i] > start {
		start = busy[i]
	}
	busy[i] = start + dur
	return start
}

// priceExact replays deliverRemote's reservation arithmetic step for step
// against the session ledger. The replay is bit-identical to the DES
// because (a) each ledger slot sees reservations from exactly one rank, in
// that rank's program order — the same order the serial engine would issue
// them — and (b) every floating-point operation below matches the DES path
// operation for operation. Exact admission is SN-only, so the VN branches
// of the DES path are dead here by construction.
func (s *HybridSession) priceExact(at sim.Time, msg Msg, rank int) (Timeline, bool) {
	f := s.f
	nic := f.M.NIC
	link := f.M.Link
	size := float64(msg.Bytes)
	r32 := int32(rank)

	t := at + nic.SendOverheadUS*usToS
	route := f.routes.LinkIDs(msg.SrcNode, msg.DstNode)
	hops := len(route)

	if nic.RendezvousThresholdBytes > 0 && msg.Bytes > int64(nic.RendezvousThresholdBytes) {
		rtt := 2 * (nic.SendOverheadUS*usToS + float64(hops)*link.HopLatencyUS*usToS)
		t += rtt
	}

	injTime := size / nic.EffBW()
	if !claim(s.txOwner, msg.SrcNode, r32) {
		return Timeline{}, false
	}
	t0 := reserve(s.txBusy, msg.SrcNode, t, injTime)

	head := t0
	var lastStart sim.Time = t0
	lastSer := 0.0
	for _, id := range route {
		if !claim(s.linkOwner, int(id), r32) {
			return Timeline{}, false
		}
		linkSer := size / link.BW
		req := head + link.HopLatencyUS*usToS
		st := reserve(s.linkBusy, int(id), req, linkSer)
		head = st
		lastStart = st
		lastSer = linkSer
	}

	tail := lastStart + lastSer
	if lower := t0 + injTime + float64(hops)*link.HopLatencyUS*usToS; lower > tail {
		tail = lower
	}
	return Timeline{Depart: at, Injected: t0 + injTime, Arrive: tail + nic.RecvOverheadUS*usToS}, true
}

// priceAnalytic is deliverRemote with every reservation granted at its
// request time (idle network): the closed form the analytic collective
// model is built on, extended with the VN mediation/proxy terms on both
// sides. It is deterministic regardless of rank schedule because nothing
// depends on ledger state.
func (s *HybridSession) priceAnalytic(at sim.Time, msg Msg) Timeline {
	f := s.f
	nic := f.M.NIC
	link := f.M.Link
	size := float64(msg.Bytes)

	t := at + nic.SendOverheadUS*usToS
	hops := f.Tor.Hops(msg.SrcNode, msg.DstNode)

	if nic.RendezvousThresholdBytes > 0 && msg.Bytes > int64(nic.RendezvousThresholdBytes) {
		rtt := 2 * (nic.SendOverheadUS*usToS + float64(hops)*link.HopLatencyUS*usToS)
		t += rtt
	}
	if msg.Mode == machine.VN && nic.VNProxyUS > 0 {
		if msg.SrcCore > 0 {
			t += nic.VNMediationUS * usToS
		}
		t += nic.VNProxyUS * usToS // send-side proxy, uncontended
	}

	injTime := size / nic.EffBW()
	linkSer := size / link.BW
	// Cut-through: head advances one hop latency per link; the tail is the
	// later of the last link's serialisation and injection + pipeline.
	tail := t + float64(hops)*link.HopLatencyUS*usToS + linkSer
	if lower := t + injTime + float64(hops)*link.HopLatencyUS*usToS; lower > tail {
		tail = lower
	}

	recvOv := nic.RecvOverheadUS * usToS
	arrive := tail + recvOv
	if msg.Mode == machine.VN && nic.VNProxyUS > 0 {
		arrive = tail + nic.VNProxyUS*usToS + recvOv
		if msg.DstCore > 0 {
			arrive += nic.VNMediationUS * usToS
		}
	}
	return Timeline{Depart: at, Injected: t + injTime, Arrive: arrive}
}

// Violated reports whether the exact ledger observed shared ownership, and
// the stable fallback reason.
func (s *HybridSession) Violated() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.violated, s.reason
}

// Commit folds the session's delivery counters into the fabric. Call once,
// only when the hybrid run completed without aborting.
func (s *HybridSession) Commit() {
	s.f.MsgsDelivered += s.msgs
	s.f.BytesDelivered += s.bytes
}
