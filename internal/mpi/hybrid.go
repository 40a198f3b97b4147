package mpi

import (
	"sort"
	"sync"

	"xtsim/internal/core"
	"xtsim/internal/network"
	"xtsim/internal/sim"
)

// Hybrid rank runtime (DESIGN.md §4i): when core.EnableHybrid admitted the
// run, every rank advances a private clock (core.HybClock) instead of a
// coroutine-per-rank DES process. Sends are priced by the fabric's
// HybridSession (exact ledger replay or the uncontended closed form),
// receives match against a per-rank pending list, and collectives meet at
// a shared barrier object that mirrors the DES analytic meet arithmetic.
// Ranks still get one goroutine each, but they free-run in parallel across
// OS threads with no event heap, no engine serialisation, and no simulated
// context switches — which is where the wall-clock win comes from.
//
// The exact tier aborts the whole run the moment anything unpriceable
// appears (a link shared by two ranks' routes): hybAbort unwinds every
// rank, the session's private ledger is dropped, and Run re-executes the
// body on the untouched DES. Nothing observable is produced before the
// abort, so "promoted before any timing divergence" holds for the whole
// run, which is the only granularity at which replayed reservations stay
// bit-identical.

// hybAbort is the panic payload that unwinds a rank goroutine when the
// hybrid run aborts. Every blocking point selects on hybRun.abort.
type hybAbort struct{}

// hybRun is the shared state of one hybrid execution attempt.
type hybRun struct {
	w    *World
	sess *network.HybridSession

	// abort is closed exactly once when any rank hits a condition the fast
	// path cannot price; reason records why (read after all ranks unwind).
	abort  chan struct{}
	once   sync.Once
	mu     sync.Mutex
	reason string

	// commMu serialises Split's communicator creation: newComm mutates
	// world-level slices that the serial DES never touches concurrently.
	commMu sync.Mutex
}

func (h *hybRun) fail(reason string) {
	h.once.Do(func() {
		h.mu.Lock()
		h.reason = reason
		h.mu.Unlock()
		close(h.abort)
	})
}

func (h *hybRun) failed() (bool, string) {
	select {
	case <-h.abort:
	default:
		return false, ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return true, h.reason
}

// hybTask is one rank's hybrid execution context.
type hybTask struct {
	run *hybRun
	clk *core.HybClock
	// wake is the rank's wakeup channel (buffered 1 so a deposit racing
	// with the block registration is never lost); the rank registers it on
	// its communicator view before blocking in hybRecv.
	wake chan struct{}
	// horizon is the latest message-arrival time this rank caused: the DES
	// makespan includes arrival events of messages nobody consumed, so the
	// hybrid end time must too.
	horizon   sim.Time
	sentMsgs  uint64
	sentBytes uint64
}

// hybMsg is one delivered-but-unconsumed message.
type hybMsg struct {
	at  sim.Time
	env Envelope
}

// hybView is a rank's per-communicator pending-message list, the hybrid
// stand-in for the matching table + mailboxes. A linear first-match scan is
// exact: deposits from one sender land in that sender's program order, so
// per-(src,tag) FIFO — the DES mailbox guarantee — is preserved.
type hybView struct {
	mu   sync.Mutex
	pend []hybMsg
	// wait is the owner's wake channel while it blocks (nil otherwise).
	wait chan struct{}
}

func (v *hybView) deposit(m hybMsg) {
	v.mu.Lock()
	v.pend = append(v.pend, m)
	ch := v.wait
	v.mu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// hybRecv blocks until a message with the given source and tag is pending,
// removes it preserving order, and advances the clock to its arrival time
// (the DES resumes the blocked proc at exactly the arrival event's time;
// max() covers the already-arrived case, where the DES proc does not move).
func (p *P) hybRecv(src, tag int) Envelope {
	t := p.hyb
	v := p.hybV
	for {
		v.mu.Lock()
		for i := range v.pend {
			if v.pend[i].env.Src == src && v.pend[i].env.Tag == tag {
				m := v.pend[i]
				v.pend = append(v.pend[:i], v.pend[i+1:]...)
				v.mu.Unlock()
				if m.at > t.clk.T {
					t.clk.T = m.at
				}
				return m.env
			}
		}
		v.wait = t.wake
		v.mu.Unlock()
		select {
		case <-t.wake:
		case <-t.run.abort:
			panic(hybAbort{})
		}
	}
}

// hybIsend prices the transfer on the session and deposits the envelope at
// the receiver, stamped with its arrival time. An exact-ledger violation
// aborts the whole run. The payload is privately cloned (the domain payload
// pool is not safe under concurrent rank goroutines).
func (p *P) hybIsend(dst, tag int, bytes int64, data []float64) *Request {
	t := p.hyb
	dstTask := p.global(dst)
	tl, ok := t.run.sess.Price(t.clk.T, p.msg(dstTask, bytes), p.task.ID)
	if !ok {
		_, reason := t.run.sess.Violated()
		t.run.fail(reason)
		panic(hybAbort{})
	}
	t.sentMsgs++
	t.sentBytes += uint64(bytes)
	if tl.Arrive > t.horizon {
		t.horizon = tl.Arrive
	}
	p.c.members[dst].hybV.deposit(hybMsg{
		at:  tl.Arrive,
		env: Envelope{Src: p.me, Tag: tag, Bytes: bytes, Data: cloneFloats(data)},
	})
	req := p.newSendReq()
	req.done = true
	req.ready = tl.Injected
	return req
}

// hybSync is the hybrid analytic meet: the counterpart of syncState, keyed
// by the same collective sequence number. The max-entry-time holder's cost
// closure prices the collective — in the DES that closure belongs to the
// last arriver, which (procs execute in time order) is the max-time rank;
// on an exact time tie the DES falls back to engine scheduling order where
// the hybrid deterministically picks the highest rank, so rank-dependent
// costs can differ on ties (symmetric costs, the norm, cannot).
type hybSync struct {
	mu      sync.Mutex
	arrived int
	maxAt   sim.Time
	maxRank int
	cost    func() float64
	finish  sim.Time
	acc     []float64
	contrib [][]float64
	shared  []any
	result  any
	done    chan struct{}
}

// hybMeet runs one collective meet: update runs at this rank's arrival
// (under the meet lock), finish runs once at the last arrival before the
// finish time is published, and every rank leaves with its clock at the
// meet's finish time.
func (p *P) hybMeet(cost func() float64, update, finish func(st *hybSync)) *hybSync {
	t := p.hyb
	idx := p.collSeq
	p.collSeq++
	c := p.c
	c.hmu.Lock()
	for len(c.hsyncs) <= idx {
		c.hsyncs = append(c.hsyncs, &hybSync{maxRank: -1, done: make(chan struct{})})
	}
	st := c.hsyncs[idx]
	c.hmu.Unlock()

	st.mu.Lock()
	now := t.clk.T
	if update != nil {
		update(st)
	}
	if st.maxRank < 0 || now > st.maxAt || (now == st.maxAt && p.me > st.maxRank) {
		st.maxAt = now
		st.maxRank = p.me
		st.cost = cost
	}
	st.arrived++
	if st.arrived == len(c.group) {
		if finish != nil {
			finish(st)
		}
		f := st.maxAt
		if st.cost != nil {
			f += st.cost()
		}
		st.finish = f
		st.mu.Unlock()
		close(st.done)
	} else {
		st.mu.Unlock()
		select {
		case <-st.done:
		case <-t.run.abort:
			panic(hybAbort{})
		}
	}
	t.clk.T = st.finish
	return st
}

// hybSplit is Split on the hybrid path: contributions collect at the meet,
// the last arriver builds the sub-communicators exactly as the DES does
// (same sort keys, same ascending-color creation order), and every rank
// leaves with a hybrid-wired view of its new communicator.
func (p *P) hybSplit(color, key int) *P {
	type entry struct{ color, key, rank int }
	st := p.hybMeet(nil, func(st *hybSync) {
		if st.shared == nil {
			st.shared = make([]any, len(p.c.group))
		}
		st.shared[p.me] = entry{color: color, key: key, rank: p.me}
	}, func(st *hybSync) {
		all := make([]entry, 0, len(st.shared))
		for _, v := range st.shared {
			all = append(all, v.(entry))
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].color != all[j].color {
				return all[i].color < all[j].color
			}
			if all[i].key != all[j].key {
				return all[i].key < all[j].key
			}
			return all[i].rank < all[j].rank
		})
		groups := make(map[int][]int)
		var colors []int
		for _, e := range all {
			if _, seen := groups[e.color]; !seen {
				colors = append(colors, e.color)
			}
			groups[e.color] = append(groups[e.color], p.c.group[e.rank])
		}
		sort.Ints(colors)
		comms := make(map[int]*Comm)
		run := p.hyb.run
		run.commMu.Lock()
		for _, c := range colors {
			comms[c] = p.c.w.newComm(groups[c])
		}
		run.commMu.Unlock()
		st.result = comms
	})
	comms := st.result.(map[int]*Comm)
	v := comms[color].view(p.task)
	v.hyb = p.hyb
	return v
}

// tryHybrid attempts a whole run on the hybrid fast path. ok=false means
// the DES must run instead — admission declined at the fabric, or the exact
// ledger aborted mid-run; either way the fabric is untouched (the session
// ledger is private and counters commit only on success), so the DES re-run
// starts pristine.
func tryHybrid(sys *core.System, mode CollectiveMode, body func(p *P)) (sim.Time, bool) {
	sess, reason := sys.Fabric.BeginHybrid(sys.HybridTier() == core.HybridExact)
	if sess == nil {
		sys.DisableHybrid(reason)
		return 0, false
	}
	w := NewWorld(sys)
	w.CollMode = mode
	run := &hybRun{w: w, sess: sess, abort: make(chan struct{})}
	w.hyb = run
	comm := w.newComm(identity(sys.NumTasks))

	n := sys.NumTasks
	tasks := make([]*hybTask, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(hybAbort); ok {
						return
					}
					panic(r)
				}
			}()
			r := sys.HybridRank(id)
			t := &hybTask{run: run, clk: r.HybClock(), wake: make(chan struct{}, 1)}
			tasks[id] = t
			p := comm.view(r)
			p.hyb = t
			body(p)
		}(i)
	}
	wg.Wait()

	if aborted, why := run.failed(); aborted {
		sys.DisableHybrid(why)
		return 0, false
	}

	// The DES makespan is the last event's time: rank finish times
	// (WaitUntil/compute events), plus arrival events of messages that were
	// delivered but never consumed — the per-task horizon.
	var end sim.Time
	for _, t := range tasks {
		if t == nil {
			continue
		}
		if t.clk.T > end {
			end = t.clk.T
		}
		if t.horizon > end {
			end = t.horizon
		}
		w.SentMsgs += t.sentMsgs
		w.SentBytes += t.sentBytes
	}
	sess.Commit()
	w.FoldStats()
	w.Finalize()
	return end, true
}
