// Package network models message transport over the Cray SeaStar /
// SeaStar2 interconnect (and, for the comparison platforms, switched
// fabrics): NIC injection bandwidth, per-link occupancy with cut-through
// pipelining, router hop latency, MPI software overheads, the
// eager/rendezvous protocol switch, intra-node memory-copy transfers, and
// the virtual-node-mode NIC-sharing penalty that drives many of the
// paper's results.
//
// The fabric is pure reservation bookkeeping on top of sim.FIFOResource:
// when a message departs, its complete timeline (injection, every link
// along the dimension-ordered route, ejection) is computed in one event and
// the arrival callback is scheduled. Contention appears through the
// busy-until state that earlier messages leave on each resource.
package network

import (
	"fmt"
	"sort"

	"xtsim/internal/critpath"
	"xtsim/internal/machine"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/timeline"
	"xtsim/internal/torus"
)

// usToS converts the microsecond parameters of machine configs to seconds.
const usToS = 1e-6

// Fabric is the interconnect of one simulated system instance.
type Fabric struct {
	Eng *sim.Engine
	M   machine.Machine
	Tor torus.Torus

	ledger                     // the links and injection ports messages reserve
	nicRx   []sim.FIFOResource // per-node ejection port (binding on flat fabrics)
	vnProxy []sim.FIFOResource // per-node VN-mode message-handling core

	// routes memoises dimension-ordered routes as link-id slices so the
	// per-message hot path walks cached ids instead of materialising a
	// []Link per delivery.
	routes *torus.RouteCache

	// derate holds per-link bandwidth multipliers for fault injection,
	// indexed by link id. It is nil until the first DegradeLink call, so
	// the fault-free hot path pays one nil check instead of a map lookup
	// per link.
	derate []float64

	// tel holds per-resource payload-byte and queue-wait counters, nil
	// until EnableTelemetry. Like derate, the telemetry-off hot path pays
	// one nil check per reservation site and allocates nothing; busy
	// seconds and reservation counts come from the FIFOResources themselves
	// at report time, so only bytes and waits accumulate here.
	tel *telemetry.FabricBytes

	// tl is the timeline flight recorder's collector, nil until
	// EnableTimeline — the same nil-gate idiom as tel: off, each
	// reservation site pays one nil check and allocates nothing. Under the
	// sharded scheduler the per-domain collectors live in parState and
	// this field stays nil (see TimelineShard).
	tl *timeline.Collector

	// cp is the causal recorder, nil until EnableCritPath — the same
	// nil-gate idiom as tel. When on, each delivery builds one
	// happens-before edge whose stage components sum exactly to its
	// arrive − depart span; lastEdge exposes the most recent edge id so
	// the MPI layer can stamp it into the matching envelope and request.
	cp       *critpath.Recorder
	lastEdge int32

	// freeVN is a free list of VN-mode arrival records, recycled when the
	// arrival event fires, so the per-message VN receive path allocates
	// nothing in steady state.
	freeVN *vnArrival

	// par is the sharded-delivery state, nil in serial mode — the same
	// nil-gate idiom as derate/tel/cp, so the serial hot path pays one nil
	// check. See parallel.go and DESIGN.md §4h.
	par *parState

	// sio lists the torus node ids reserved for service-I/O duty (set by
	// NewWithSIO); empty on fabrics built without an SIO partition.
	sio []int

	// MsgsDelivered counts completed transfers, for reporting.
	MsgsDelivered uint64
	// BytesDelivered accumulates payload bytes, for reporting.
	BytesDelivered uint64
}

// maxRouteCacheEntries bounds each fabric's route cache. 128Ki routes
// cover every ordered pair of a 362-node system outright (≈10 MB worst
// case); beyond that the cache holds the current communication phase's
// working set (see torus.RouteCache for the eviction policy).
const maxRouteCacheEntries = 1 << 17

// newRouteCache builds a route cache for tor, bounded by
// maxRouteCacheEntries or by the count of ordered node pairs if smaller.
func newRouteCache(tor torus.Torus) *torus.RouteCache {
	return torus.NewRouteCache(tor, min(maxRouteCacheEntries, tor.Nodes()*tor.Nodes()))
}

// New builds a fabric for nNodes nodes of machine m.
func New(eng *sim.Engine, m machine.Machine, nNodes int) *Fabric {
	return NewWithSIO(eng, m, nNodes, 0)
}

// NewWithSIO builds a fabric whose torus holds nCompute compute nodes plus
// nSIO service-I/O nodes. The SIO nodes take the highest node ids of the
// torus (mirroring the XT4's service blades at the mesh edge) and are
// disjoint from the compute range [0, nCompute): compute placement never
// lands a rank on them, so I/O server traffic crosses real torus links to
// reach storage, contending with compute-phase traffic along the way.
func NewWithSIO(eng *sim.Engine, m machine.Machine, nCompute, nSIO int) *Fabric {
	if nSIO < 0 {
		panic("network: negative SIO node count")
	}
	tor := m.TorusFor(nCompute + nSIO)
	f := &Fabric{
		Eng:     eng,
		M:       m,
		Tor:     tor,
		ledger:  newLedger(tor),
		nicRx:   make([]sim.FIFOResource, tor.Nodes()),
		vnProxy: make([]sim.FIFOResource, tor.Nodes()),
		routes:  newRouteCache(tor),
	}
	for i := 0; i < nSIO; i++ {
		f.sio = append(f.sio, tor.Nodes()-1-i)
	}
	return f
}

// SIONodes returns the fabric's reserved service-I/O node ids (highest
// first), or nil when the fabric was built without an SIO partition. The
// Lustre layer places its OSS servers here when the slice is non-empty.
func (f *Fabric) SIONodes() []int { return f.sio }

// Msg describes one point-to-point transfer.
type Msg struct {
	SrcNode, DstNode int
	SrcCore, DstCore int // core index within the node (0-based)
	Bytes            int64
	Mode             machine.Mode
}

func (m Msg) String() string {
	return fmt.Sprintf("msg %d.%d -> %d.%d (%d bytes)", m.SrcNode, m.SrcCore, m.DstNode, m.DstCore, m.Bytes)
}

// Timeline is the computed schedule of a transfer.
type Timeline struct {
	// Depart is when the sender invoked the transfer.
	Depart sim.Time
	// Injected is when the payload finished leaving the source node; a
	// blocking MPI send returns at this point (eager buffering).
	Injected sim.Time
	// Arrive is when the payload is fully available at the receiver,
	// including receive-side software overhead.
	Arrive sim.Time
}

// Deliver computes the transfer timeline for msg departing at time at and
// schedules onArrive at the arrival instant (the event's timestamp is
// passed to Arrive). It returns the timeline so senders can block until
// local completion. Deliver must be called from an event or process at
// simulated time at (it reserves resources relative to the current
// schedule). The callback is a sim.Arriver rather than a closure so
// per-message callers can pass a pooled object and pay no allocation; use
// sim.ArriveFunc to adapt a plain function on setup paths.
func (f *Fabric) Deliver(at sim.Time, msg Msg, onArrive sim.Arriver) Timeline {
	if msg.Bytes < 0 {
		panic(fmt.Sprintf("network: negative message size %d", msg.Bytes))
	}
	if msg.SrcNode < 0 || msg.SrcNode >= f.Tor.Nodes() || msg.DstNode < 0 || msg.DstNode >= f.Tor.Nodes() {
		panic(fmt.Sprintf("network: node out of range in %v (fabric has %d nodes)", msg, f.Tor.Nodes()))
	}
	if f.par != nil {
		return f.deliverParallel(at, msg, onArrive)
	}

	var tl Timeline
	if msg.SrcNode == msg.DstNode {
		tl = f.deliverLocal(at, msg)
		if f.tel != nil {
			f.tel.Local += msg.Bytes
		}
		if f.cp != nil {
			id, e := f.cp.StartEdge(critpath.EdgeMessage, at, msg.Bytes, 0)
			if e != nil {
				// Halved software overheads plus the memcpy: the two
				// components sum to Arrive − at exactly.
				e.Overhead = 0.5 * (f.M.NIC.SendOverheadUS + f.M.NIC.RecvOverheadUS) * usToS
				e.Inject = float64(msg.Bytes) / f.M.NIC.MemcpyBW
			}
			f.lastEdge = id
		}
		if onArrive != nil {
			f.Eng.AtArrive(tl.Arrive, onArrive)
		}
	} else {
		tl = f.deliverRemote(at, msg, onArrive)
	}
	f.MsgsDelivered++
	f.BytesDelivered += uint64(msg.Bytes)
	return tl
}

// vnArrival is the deferred receive-side stage of one VN-mode transfer: at
// the payload's tail-arrival instant it reserves the destination node's
// message-handling core (queueing in arrival order) and then schedules the
// caller's arrival callback. Records are pooled on the fabric.
type vnArrival struct {
	f     *Fabric
	node  int         // destination node
	bytes int64       // payload size, for telemetry accounting
	extra sim.Time    // post-proxy mediation + receive software overhead
	edge  int32       // critical-path edge id, 0 when recording is off
	sink  sim.Arriver // caller's callback (may be nil)
	next  *vnArrival  // free-list link
}

// Arrive runs at the payload's tail arrival time.
func (v *vnArrival) Arrive(tail sim.Time) {
	f := v.f
	sink := v.sink
	dur := f.M.NIC.VNProxyUS * usToS
	start := f.vnProxy[v.node].Reserve(tail, dur)
	if f.tel != nil {
		f.tel.VNProxy[v.node] += v.bytes
		f.tel.VNProxyWait[v.node] += start - tail
	}
	if f.tl != nil {
		f.tl.Sample(timeline.VNProxy, tail, start, start+dur)
	}
	arr := start + dur + v.extra
	if v.edge != 0 {
		// Finish the edge's decomposition with the receive-side proxy
		// stage, keeping the component sum equal to arr − Depart.
		e := f.cp.Edge(v.edge)
		e.InjWait += start - tail
		e.Inject += dur
		e.Overhead += v.extra
		v.edge = 0
	}
	v.sink = nil
	v.next = f.freeVN
	f.freeVN = v
	if sink != nil {
		f.Eng.AtArrive(arr, sink)
	}
}

// newVNArrival takes a record from the free list (or allocates one).
func (f *Fabric) newVNArrival(node int, bytes int64, extra sim.Time, sink sim.Arriver) *vnArrival {
	v := f.freeVN
	if v == nil {
		v = &vnArrival{f: f}
	} else {
		f.freeVN = v.next
		v.next = nil
	}
	v.node, v.bytes, v.extra, v.sink = node, bytes, extra, sink
	return v
}

// deliverLocal models a same-node (core-to-core) transfer: §2 notes that
// messages between two cores on the same socket are handled through a
// memory copy. Software overheads are roughly halved because no Portals
// descriptor or NIC doorbell is involved.
func (f *Fabric) deliverLocal(at sim.Time, msg Msg) Timeline {
	nic := f.M.NIC
	t := at + 0.5*nic.SendOverheadUS*usToS
	copyTime := float64(msg.Bytes) / nic.MemcpyBW
	done := t + copyTime
	arrive := done + 0.5*nic.RecvOverheadUS*usToS
	return Timeline{Depart: at, Injected: done, Arrive: arrive}
}

// ledger is the reservation state a remote transfer books on its way out:
// the directed torus links (indexed by Tor.LinkID) and the per-node NIC
// injection ports. The fabric owns one; an exact hybrid session prices
// against a private one.
type ledger struct {
	links []sim.FIFOResource
	nicTx []sim.FIFOResource
}

func newLedger(tor torus.Torus) ledger {
	return ledger{
		links: make([]sim.FIFOResource, tor.NumLinks()),
		nicTx: make([]sim.FIFOResource, tor.Nodes()),
	}
}

// deliverRemote models the full network path and schedules onArrive. The
// send side (priceSend) is computed eagerly in reservation order, which is
// also time order for a node's own sends; the receive-side VN proxy is
// handled by an event at the payload's tail-arrival time, so that proxy
// queueing follows *arrival* order — a FIFO reserved eagerly with future
// timestamps would queue messages in send order and inflate contention
// unboundedly.
func (f *Fabric) deliverRemote(at sim.Time, msg Msg, onArrive sim.Arriver) Timeline {
	nic := &f.M.NIC
	route := f.routes.LinkIDs(msg.SrcNode, msg.DstNode)
	injected, tail, eid := f.priceSend(&f.ledger, f.tl, at, &msg, route, len(route))
	var e *critpath.Edge
	if eid != 0 {
		e = f.cp.Edge(eid)
	}

	// On flat switched fabrics the ejection port is a real bottleneck
	// (many-to-one patterns); on the torus the final link already
	// serialised arrivals into the node.
	if f.M.Topology == machine.FlatSwitch {
		ej := float64(msg.Bytes) / nic.EffBW()
		s := f.nicRx[msg.DstNode].Reserve(tail-ej, ej)
		if f.tel != nil {
			f.tel.NICRx[msg.DstNode] += msg.Bytes
			f.tel.NICRxWait[msg.DstNode] += s - (tail - ej)
		}
		if e != nil {
			e.LinkWait += s - (tail - ej)
		}
		tail = s + ej
	}

	// Receive-side mediation and software overhead.
	recvOv := nic.RecvOverheadUS * usToS
	if msg.Mode == machine.VN && nic.VNProxyUS > 0 {
		dur := nic.VNProxyUS * usToS
		med := 0.0
		if msg.DstCore > 0 {
			med = nic.VNMediationUS * usToS
		}
		// Reserve the handling core when the payload actually arrives, so
		// contention reflects arrival order. The critical-path edge is
		// finished there too (receive-proxy queueing isn't known yet).
		v := f.newVNArrival(msg.DstNode, msg.Bytes, med+recvOv, onArrive)
		v.edge = eid
		f.Eng.AtArrive(tail, v)
		// The returned timeline carries the uncontended estimate; the
		// authoritative arrival is the onArrive callback's timestamp.
		return Timeline{Depart: at, Injected: injected, Arrive: tail + dur + med + recvOv}
	}
	arrive := tail + recvOv
	if e != nil {
		e.Overhead += recvOv
	}
	if onArrive != nil {
		f.Eng.AtArrive(arrive, onArrive)
	}
	return Timeline{Depart: at, Injected: injected, Arrive: arrive}
}

// priceSend is the send side of a remote transfer — software overhead, the
// rendezvous round-trip, the VN send proxy, NIC injection and the
// cut-through walk along route — and the one statement of that cost model:
// serial delivery, sharded delivery and the exact hybrid tier all price
// through it and differ only in what they pass. It reserves the injection
// port and the first owned links of route on l; links past owned (the
// sharded fabric's foreign hops) are priced at uncontended wire time. tl,
// when non-nil, samples every reservation. It returns when the payload
// finished leaving the source, when its tail reaches the destination node,
// and the critical-path edge id (0 when recording is off); the receive
// side is the caller's.
func (f *Fabric) priceSend(l *ledger, tl *timeline.Collector, at sim.Time, msg *Msg, route []int32, owned int) (injected, tail sim.Time, eid int32) {
	nic := &f.M.NIC
	link := &f.M.Link
	size := float64(msg.Bytes)
	hops := len(route)

	// Send-side software overhead.
	t := at + nic.SendOverheadUS*usToS

	// Critical-path edge: each stage below adds its contribution so the
	// five components sum exactly to the arrival − at span, even though
	// the stages themselves overlap under cut-through pipelining.
	var e *critpath.Edge
	if f.cp != nil {
		eid, e = f.cp.StartEdge(critpath.EdgeMessage, at, msg.Bytes, hops)
		f.lastEdge = eid
		if e != nil {
			e.Overhead += nic.SendOverheadUS * usToS
		}
	}

	// Rendezvous protocol: large messages pay a control round-trip before
	// the payload moves (request-to-send / clear-to-send).
	if nic.RendezvousThresholdBytes > 0 && msg.Bytes > int64(nic.RendezvousThresholdBytes) {
		rtt := 2 * (nic.SendOverheadUS*usToS + float64(hops)*link.HopLatencyUS*usToS)
		t += rtt
		if e != nil {
			e.Overhead += rtt
		}
	}

	// Virtual-node mode: traffic to or from the non-NIC core is mediated
	// by core 0, adding fixed latency plus queueing on the handling core.
	if msg.Mode == machine.VN && nic.VNProxyUS > 0 {
		if msg.SrcCore > 0 {
			t += nic.VNMediationUS * usToS
			if e != nil {
				e.Overhead += nic.VNMediationUS * usToS
			}
		}
		start := f.vnProxy[msg.SrcNode].Reserve(t, nic.VNProxyUS*usToS)
		if f.tel != nil {
			f.tel.VNProxy[msg.SrcNode] += msg.Bytes
			f.tel.VNProxyWait[msg.SrcNode] += start - t
		}
		if tl != nil {
			tl.Sample(timeline.VNProxy, t, start, start+nic.VNProxyUS*usToS)
		}
		if e != nil {
			e.InjWait += start - t
			e.Inject += nic.VNProxyUS * usToS
		}
		t = start + nic.VNProxyUS*usToS
	}

	// NIC injection: the payload serialises through the HyperTransport/
	// NIC path at the effective injection bandwidth.
	injTime := size / nic.EffBW()
	t0 := l.nicTx[msg.SrcNode].Reserve(t, injTime)
	if f.tel != nil {
		f.tel.NICTx[msg.SrcNode] += msg.Bytes
		f.tel.NICTxWait[msg.SrcNode] += t0 - t
		f.tel.Hop += msg.Bytes * int64(hops)
	}
	if tl != nil {
		tl.Sample(timeline.NIC, t, t0, t0+injTime)
	}
	if e != nil {
		e.InjWait += t0 - t
		e.Inject += injTime
	}

	// Links along the dimension-ordered route, cut-through pipelined: the
	// head flit advances one hop latency per link, and each link is
	// occupied for the full serialisation time, so contending flows push
	// each other back.
	head := t0
	var lastStart sim.Time = t0
	lastSer := 0.0
	linkWaitSum := 0.0
	tel := f.tel // hoisted: Reserve can't alias it, but the compiler can't tell
	links := l.links
	for i, id := range route {
		bw := link.BW
		if f.derate != nil {
			bw *= f.derate[id]
		}
		linkSer := size / bw
		req := head + link.HopLatencyUS*usToS
		s := req
		if i < owned {
			s = links[id].Reserve(req, linkSer)
		}
		if tel != nil {
			tel.Link[id] += msg.Bytes
			tel.LinkWait[id] += s - req
		}
		if tl != nil {
			tl.Sample(timeline.Link, req, s, s+linkSer)
		}
		if e != nil {
			if wv := s - req; wv > 0 {
				linkWaitSum += wv
				f.cp.AddHopWait(eid, int32(id), wv)
			}
		}
		head = s
		lastStart = s
		lastSer = linkSer
	}

	// Tail arrival at the destination node: bounded below both by the last
	// link's serialisation and by injection completing plus the route's
	// pipeline latency (the wormhole can't outrun the source).
	injected = t0 + injTime
	tail = lastStart + lastSer
	if lower := t0 + injTime + float64(hops)*link.HopLatencyUS*usToS; lower > tail {
		tail = lower
	}
	if e != nil {
		// The link phase spans injection-complete → tail. Under pipelining
		// the per-hop waits overlap serialisation, so cap their sum at the
		// phase length; the remainder is wire time (latency + pipeline
		// fill). This keeps LinkWait + Transit exactly equal to the phase.
		phase := tail - injected
		lw := linkWaitSum
		if lw > phase {
			lw = phase
		}
		e.LinkWait += lw
		e.Transit += phase - lw
	}
	return injected, tail, eid
}

// DegradeLink installs a bandwidth multiplier on one directed link
// (fault injection: a flaky SeaStar cable or a link running in a degraded
// width). factor must be in (0, 1]; passing 1 removes the derating.
// Deterministic routing means traffic crossing the link simply slows —
// the XT has no adaptive rerouting to hide it, which is what makes slow
// links so visible operationally.
func (f *Fabric) DegradeLink(l torus.Link, factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("network: link derate factor %g out of (0,1]", factor))
	}
	if f.derate == nil {
		if factor == 1 {
			return // nothing installed, nothing to remove
		}
		f.derate = make([]float64, f.Tor.NumLinks())
		for i := range f.derate {
			f.derate[i] = 1
		}
	}
	f.derate[f.Tor.LinkID(l)] = factor
}

// ZeroLatencyEstimate returns the modelled small-message one-way latency in
// seconds between two nodes hops apart in the given mode, assuming an idle
// network. It is the closed-form used by the analytic collective model and
// validated against the simulated path in tests.
func (f *Fabric) ZeroLatencyEstimate(hops int, mode machine.Mode, farCore bool) float64 {
	nic := f.M.NIC
	lat := (nic.SendOverheadUS + nic.RecvOverheadUS) * usToS
	lat += float64(hops) * f.M.Link.HopLatencyUS * usToS
	if mode == machine.VN {
		lat += 2 * nic.VNProxyUS * usToS
		if farCore {
			lat += 2 * nic.VNMediationUS * usToS
		}
	}
	return lat
}

// EnableTelemetry installs the per-resource byte counters (nil-gated, like
// derate) and returns them. Idempotent; call before the traffic of
// interest — counters start from zero at the moment of the call.
func (f *Fabric) EnableTelemetry() *telemetry.FabricBytes {
	if f.tel == nil {
		f.tel = telemetry.NewFabricBytes(f.Tor.NumLinks(), f.Tor.Nodes())
	}
	return f.tel
}

// TelemetryEnabled reports whether EnableTelemetry has been called.
func (f *Fabric) TelemetryEnabled() bool { return f.tel != nil }

// EnableTimeline installs the serial timeline collector (nil-gated, like
// tel): each subsequent reservation is sampled into its fixed-width bins.
// Under the sharded scheduler use TimelineShard instead, which hands every
// domain its own collector.
func (f *Fabric) EnableTimeline(c *timeline.Collector) { f.tl = c }

// NumLinks reports the number of directed torus links — the Link-class
// resource count for timeline utilization normalisation.
func (f *Fabric) NumLinks() int { return len(f.links) }

// EnableCritPath installs the causal recorder (nil-gated, like tel); each
// delivery then records a happens-before edge with per-stage time
// components and per-hop link queue waits. Call before the traffic of
// interest.
func (f *Fabric) EnableCritPath(rec *critpath.Recorder) { f.cp = rec }

// CritPathEnabled reports whether EnableCritPath has been called.
func (f *Fabric) CritPathEnabled() bool { return f.cp != nil }

// LastCritPathEdge returns the edge id recorded by the most recent Deliver
// call, or 0 when recording is off or the edge was dropped at the cap.
// The MPI layer reads it right after Deliver to stamp the edge into the
// matching envelope (single-threaded event execution makes this safe).
func (f *Fabric) LastCritPathEdge() int32 { return f.lastEdge }

// LinkLabel names a directed link from its dense id ("node 12 +X"); shared
// by the telemetry and critical-path reports.
func (f *Fabric) LinkLabel(id int) string { return f.linkLabel(id) }

// linkLabel names a directed link from its dense id ("node 12 +X").
func (f *Fabric) linkLabel(id int) string {
	dim := torus.Dim(id % 6 / 2)
	sign := byte('+')
	if id%2 == 1 {
		sign = '-'
	}
	return fmt.Sprintf("node %d %c%v", id/6, sign, dim)
}

// telemetryTopLinks bounds the busiest-links list in the report.
const telemetryTopLinks = 5

// TelemetryReport assembles the fabric's deterministic utilization report
// over [0, horizon]: per-class and per-dimension summaries, the per-node
// congestion field, and the busiest links. Returns nil unless telemetry is
// enabled. Busy seconds and reservation counts are read from the
// FIFOResources (pre-existing fields); bytes and queue-wait seconds come
// from the nil-gated hot-path accumulators.
func (f *Fabric) TelemetryReport(horizon sim.Time) *telemetry.FabricReport {
	if f.tel == nil {
		return nil
	}
	tor := f.Tor
	rep := &telemetry.FabricReport{
		NX: tor.NX, NY: tor.NY, NZ: tor.NZ,
		Torus:          fmt.Sprintf("%dx%dx%d", tor.NX, tor.NY, tor.NZ),
		MsgsDelivered:  f.MsgsDelivered,
		BytesDelivered: f.BytesDelivered,
		LocalBytes:     f.tel.Local,
		HopBytes:       f.tel.Hop,
	}

	// Per-class summaries, in fixed order. The busiest-resource label
	// resolves the aggregator's index through the class's own id space.
	linkAgg := telemetry.NewClassAgg("link", horizon)
	for i := range f.links {
		r := &f.links[i]
		linkAgg.Add(r.Busy, f.tel.LinkWait[i], f.tel.Link[i], r.Count)
	}
	nodeClass := func(name string, rs []sim.FIFOResource, bytes []int64, wait []float64) *telemetry.ClassAgg {
		agg := telemetry.NewClassAgg(name, horizon)
		for i := range rs {
			agg.Add(rs[i].Busy, wait[i], bytes[i], rs[i].Count)
		}
		return agg
	}
	txAgg := nodeClass("nic_tx", f.nicTx, f.tel.NICTx, f.tel.NICTxWait)
	rxAgg := nodeClass("nic_rx", f.nicRx, f.tel.NICRx, f.tel.NICRxWait)
	vnAgg := nodeClass("vn_proxy", f.vnProxy, f.tel.VNProxy, f.tel.VNProxyWait)
	for _, agg := range []*telemetry.ClassAgg{linkAgg, txAgg, rxAgg, vnAgg} {
		s := agg.Summary()
		if i := agg.MaxIndex(); i >= 0 {
			if s.Class == "link" {
				s.Busiest = f.linkLabel(i)
			} else {
				s.Busiest = fmt.Sprintf("node %d", i)
			}
		}
		rep.Classes = append(rep.Classes, s)
	}

	// Per-dimension link summaries: link id = node*6 + dim*2 + dir.
	for dim := torus.X; dim <= torus.Z; dim++ {
		agg := telemetry.NewClassAgg(dim.String(), horizon)
		maxID := -1
		for id := range f.links {
			if torus.Dim(id%6/2) != dim {
				continue
			}
			r := &f.links[id]
			before := agg.MaxIndex()
			agg.Add(r.Busy, f.tel.LinkWait[id], f.tel.Link[id], r.Count)
			if agg.MaxIndex() != before {
				maxID = id
			}
		}
		s := agg.Summary()
		if maxID >= 0 {
			s.Busiest = f.linkLabel(maxID)
		}
		rep.Dims = append(rep.Dims, s)
	}

	// Per-node congestion field: mean utilization of the node's six
	// outgoing links.
	rep.NodeUtil = make([]float64, tor.Nodes())
	if horizon > 0 {
		for node := range rep.NodeUtil {
			var busy sim.Time
			for port := 0; port < 6; port++ {
				busy += f.links[node*6+port].Busy
			}
			rep.NodeUtil[node] = busy / (6 * horizon)
		}
	}

	// Busiest links, utilization-descending, ties toward lower ids.
	if horizon > 0 {
		ids := make([]int, len(f.links))
		for i := range ids {
			ids[i] = i
		}
		sort.SliceStable(ids, func(a, b int) bool {
			return f.links[ids[a]].Busy > f.links[ids[b]].Busy
		})
		for _, id := range ids[:min(telemetryTopLinks, len(ids))] {
			r := &f.links[id]
			if r.Busy <= 0 {
				break
			}
			rep.TopLinks = append(rep.TopLinks, telemetry.LinkHot{
				Link:        f.linkLabel(id),
				Utilization: r.Busy / horizon,
				Bytes:       f.tel.Link[id],
				WaitSeconds: f.tel.LinkWait[id],
			})
		}
	}
	return rep
}
