package network

import (
	"errors"
	"sync"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
)

// HybridSession prices transfers for the hybrid fast path (core hybrid.go,
// DESIGN.md §4i) without touching the fabric's event engine or resource
// state. In the exact tier it prices through the fabric's own send-side
// walk (priceSend) against a session-private ledger — bit-identical to the
// DES as long as every link and injection port stays single-owner, which
// the session's owner claims enforce; in the analytic tier it charges the
// uncontended closed form (every reservation granted at its request time).
// Because the ledger is session-private and counters commit only on
// success, an aborted session leaves the fabric pristine for the DES
// re-run.
type HybridSession struct {
	f     *Fabric
	exact bool

	// mu serialises pricing: ranks call Price concurrently from their own
	// goroutines. One mutex is deliberate — the hybrid win is skipping the
	// event heap and process switching, not lock-free pricing, and a
	// single lock keeps the ledger and route cache trivially consistent.
	mu sync.Mutex

	// Exact-tier ledger, with an owner per link and injection port (rank+1,
	// 0 = unclaimed) proving the single-owner condition that makes the
	// shared walk reproduce the DES.
	ledger
	linkOwner []int32
	txOwner   []int32

	violated bool

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
		s.ledger = newLedger(f.Tor)
		s.linkOwner = make([]int32, f.Tor.NumLinks())
		s.txOwner = make([]int32, f.Tor.Nodes())
	}
	return s, ""
}

// errSharedLink is the one failure an exact session ever reports: which
// link tripped the ledger first depends on goroutine schedule, so a stable
// generic message keeps the fallback deterministic.
var errSharedLink = errors.New("link ownership violation (routes of concurrent ranks share a link)")

// Price computes the timeline of msg departing at time at from the given
// rank. A non-nil error means the exact ledger detected shared ownership —
// the session is dead (every later Price fails too) and the caller must
// abort the hybrid run.
func (s *HybridSession) Price(at sim.Time, msg Msg, rank int) (tl Timeline, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.violated {
		return Timeline{}, errSharedLink
	}
	switch {
	case msg.SrcNode == msg.DstNode:
		// Same arithmetic as the DES local path (pure, reservation-free).
		tl = s.f.deliverLocal(at, msg)
	case s.exact:
		if tl, err = s.priceExact(at, msg, rank); err != nil {
			s.violated = true
			return Timeline{}, err
		}
	default:
		tl = s.priceAnalytic(at, msg)
	}
	s.msgs++
	s.bytes += uint64(msg.Bytes)
	return tl, nil
}

// claim checks/establishes single ownership of a ledger entry.
func claim(owner []int32, i int, rank int32) bool {
	if owner[i] == 0 {
		owner[i] = rank + 1
	}
	return owner[i] == rank+1
}

// priceExact claims the source NIC and every route link for rank, then
// prices through priceSend on the session ledger. The result is
// bit-identical to the DES because each ledger slot sees reservations from
// exactly one rank, in that rank's program order — the same order the
// serial engine would issue them — and the arithmetic is the DES's own.
// A failed claim kills the session before this message reserves anything.
// Exact admission is SN-only, so priceSend's VN branch is dead here.
func (s *HybridSession) priceExact(at sim.Time, msg Msg, rank int) (Timeline, error) {
	f := s.f
	r32 := int32(rank)
	route := f.routes.LinkIDs(msg.SrcNode, msg.DstNode)
	if !claim(s.txOwner, msg.SrcNode, r32) {
		return Timeline{}, errSharedLink
	}
	for _, id := range route {
		if !claim(s.linkOwner, int(id), r32) {
			return Timeline{}, errSharedLink
		}
	}
	injected, tail, _ := f.priceSend(&s.ledger, nil, at, &msg, route, len(route))
	return Timeline{Depart: at, Injected: injected, Arrive: tail + f.M.NIC.RecvOverheadUS*usToS}, nil
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

// Commit folds the session's delivery counters into the fabric. Call once,
// only when the hybrid run completed without aborting.
func (s *HybridSession) Commit() {
	s.f.MsgsDelivered += s.msgs
	s.f.BytesDelivered += s.bytes
}
