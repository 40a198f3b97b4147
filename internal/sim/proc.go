//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"
)

// Proc is a simulated process: its body runs on a coroutine (iter.Pull)
// that the engine resumes with one direct switch and that switches straight
// back when it blocks, so at most one process runs at a time. A Proc may
// only block (Wait, Recv, resource acquisition) from its own body; blocking
// it from an event callback or from another process panics.
type Proc struct {
	eng  *Engine
	id   int
	name string

	// fn is the body, nil once it has returned. r is the coroutine running
	// it, bound at start and released when the body returns.
	fn func(p *Proc)
	r  *runner

	// parked plus the intrusive list links are the engine's blocked-process
	// bookkeeping (see Engine.park/unpark): a state flag and two pointer
	// writes per block instead of a map insert/delete.
	parked     bool
	prevParked *Proc
	nextParked *Proc
}

// Spawn starts fn as a new simulated process at the current simulated time.
// The name is used only in diagnostics. Spawn may be called before Run (to
// seed the simulation) or from inside any event or process.
// A panic in fn surfaces with its original value from Run; a runtime.Goexit
// in fn (t.FailNow, say) ends the goroutine that called Engine.Run.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{eng: e, id: e.procSeq, name: name, fn: fn}
	e.ProcsSpawned++
	// The process body starts inside an event (the first resume) so that
	// process startup is ordered with respect to every other event.
	e.schedProc(e.now, evResume, p)
	return p
}

// run transfers control to the process, binding it to a runner on its
// first resume, until it blocks on a primitive or finishes. A panic in the
// body propagates out of next with its value.
func (p *Proc) run() {
	if p.r == nil {
		p.r = getRunner()
		p.r.p = p
	}
	p.eng.cur = p
	p.r.next()
	p.eng.cur = nil
	if p.fn == nil {
		putRunner(p.r)
		p.r = nil
	}
}

// block parks the calling process and hands control to the scheduler; it
// returns when some event resumes the process. This is the single resume
// path every blocking primitive funnels through: one coroutine switch each
// way and no allocation per block.
func (p *Proc) block() {
	if p.eng.cur != p {
		panic(fmt.Sprintf("sim: process %q blocked outside its own body", p.name))
	}
	p.r.yield(struct{}{})
}

// A runner is a coroutine that runs process bodies, one at a time. Between
// bodies it holds no reference to any process, so a finished process pins
// nothing it captured (the runtime keeps a coroutine's closure until the
// coroutine itself is unreachable).
type runner struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process being run, nil while idle
}

// idleRunners holds finished runners for later processes of any engine, at
// most max of them (idleRunnerCap, which depends on the build); a runner
// beyond the cap stops. The cap keeps idle runners a small heap cost next to
// a paper-scale world.
var idleRunners = struct {
	sync.Mutex
	rs  []*runner
	max int
}{max: idleRunnerCap}

func getRunner() *runner {
	idleRunners.Lock()
	defer idleRunners.Unlock()
	if n := len(idleRunners.rs); n > 0 {
		r := idleRunners.rs[n-1]
		idleRunners.rs = idleRunners.rs[:n-1]
		return r
	}
	r := &runner{}
	r.next, r.stop = iter.Pull(func(yield func(struct{}) bool) {
		r.yield = yield
		for {
			p := r.p
			p.fn(p)
			p.fn, r.p = nil, nil
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return r
}

func putRunner(r *runner) {
	idleRunners.Lock()
	keep := len(idleRunners.rs) < idleRunners.max
	if keep {
		idleRunners.rs = append(idleRunners.rs, r)
	}
	idleRunners.Unlock()
	if !keep {
		r.stop()
	}
}

// yield parks the calling process. The scheduler resumes it when some event
// calls wake.
func (p *Proc) yield() {
	p.eng.park(p)
	p.block()
}

// wake schedules the process to resume at the current simulated time. It
// must only be called while the process is parked in yield.
func (p *Proc) wake() {
	p.eng.unpark(p)
	p.eng.schedProc(p.eng.now, evResume, p)
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id (1-based, in spawn order).
func (p *Proc) ID() int { return p.id }

// Wait blocks the process for d simulated seconds. A zero wait still yields
// to the scheduler, so Wait(0) can be used to let same-time events interleave
// deterministically.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q waiting negative duration %.9g", p.name, d))
	}
	p.eng.park(p)
	p.eng.schedProc(p.eng.now+d, evTimer, p)
	p.block()
}

// WaitUntil blocks the process until the absolute simulated time at, which
// must not be in the past.
func (p *Proc) WaitUntil(at Time) {
	if at < p.eng.now {
		panic(fmt.Sprintf("sim: process %q waiting until %.9g which is before now %.9g", p.name, at, p.eng.now))
	}
	p.Wait(at - p.eng.now)
}

// Condition is a broadcast wakeup point: processes block on Await until some
// other process or event calls Broadcast. Unlike sync.Cond there is no
// associated lock — the engine's single-threaded execution model makes the
// state transitions atomic already.
type Condition struct {
	waiters []*Proc
}

// Await parks the process until the next Broadcast.
func (c *Condition) Await(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.yield()
}

// Broadcast wakes every process currently parked on the condition, in the
// order they arrived. The waiters slice keeps its capacity across rounds:
// wake only schedules resume events (no waiter runs, so none can re-Await,
// until Broadcast returns), which makes reusing the backing array safe.
func (c *Condition) Broadcast() {
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for i, w := range ws {
		ws[i] = nil // drop the reference so the reused slot doesn't pin w
		w.wake()
	}
}

// Waiting reports how many processes are parked on the condition.
func (c *Condition) Waiting() int { return len(c.waiters) }
