package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// procPanicValue is a distinct panic payload, so the test can check that Run
// re-raises the very value the body panicked with rather than a wrapper.
type procPanicValue struct{ at Time }

// TestProcPanicPropagatesFromRun checks a panic in a serial engine's
// process body surfaces from Engine.Run with its original value.
func TestProcPanicPropagatesFromRun(t *testing.T) {
	want := &procPanicValue{at: 0.5}
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want the body's own panic value %v", r, want)
		}
	}()
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) {
		p.Wait(0.5)
		panic(want)
	})
	e.Run()
	t.Fatal("Run returned after a process panicked")
}

// expectBlockedOutside runs e and checks it panics with the misuse
// diagnostic naming victim.
func expectBlockedOutside(t *testing.T, e *Engine, victim string) {
	t.Helper()
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, `process "`+victim+`" blocked outside its own body`) {
			t.Fatalf("recovered %v, want the blocked-outside-its-own-body panic for %q", r, victim)
		}
	}()
	e.Run()
}

// TestBlockOutsideOwnBodyPanics checks that blocking a process from code
// other than its own body — an event callback or a different process —
// panics instead of switching into the wrong coroutine.
func TestBlockOutsideOwnBodyPanics(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		e := NewEngine()
		victim := e.Spawn("victim", func(p *Proc) {})
		e.At(1, func() { victim.Wait(1) })
		expectBlockedOutside(t, e, "victim")
	})
	t.Run("process", func(t *testing.T) {
		e := NewEngine()
		var c Condition
		victim := e.Spawn("victim", func(p *Proc) { c.Await(p) })
		e.Spawn("meddler", func(p *Proc) {
			p.Wait(1)
			c.Broadcast() // victim is now unparked with a resume pending
			victim.Wait(1)
		})
		expectBlockedOutside(t, e, "victim")
	})
}

// spawnHolder spawns a process whose body captures an object with a
// finalizer that sets freed. It lives in its own function so the object is
// reachable only through the body.
func spawnHolder(e *Engine, freed *atomic.Bool) *Proc {
	obj := &struct {
		buf  [256]byte
		next *int
	}{}
	runtime.SetFinalizer(obj, func(any) { freed.Store(true) })
	return e.Spawn("holder", func(p *Proc) {
		p.Wait(1)
		obj.buf[0]++
	})
}

// TestFinishedProcReleasesBody checks a finished process does not pin its
// body: the runtime keeps a coroutine's closure for as long as the coroutine
// is reachable, so neither the Proc nor its runner may hold the body once
// it returns.
func TestFinishedProcReleasesBody(t *testing.T) {
	e := NewEngine()
	var freed atomic.Bool
	p := spawnHolder(e, &freed)
	e.Run()
	// Finalizers run on their own goroutine after the cycle that finds
	// the object dead, so give them a few cycles.
	for i := 0; i < 20 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("object captured by a finished process body was not collected while the *Proc is held")
	}
	runtime.KeepAlive(p)
}

// TestBlockingAllocsIndependentOfBlockCount pins the per-block cost at zero
// allocations: a run whose processes block 1,000 times each may allocate no
// more than one whose processes block 10 times. Each round is a mailbox
// ping-pong (yield/wake) plus a timer wait, covering both resume paths.
func TestBlockingAllocsIndependentOfBlockCount(t *testing.T) {
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			e := NewEngine()
			var ping, pong Mailbox[int]
			e.Spawn("ping", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					ping.Send(i)
					pong.Recv(p)
					p.Wait(1)
				}
			})
			e.Spawn("pong", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					ping.Recv(p)
					pong.Send(i)
				}
			})
			e.Run()
		})
	}
	few, many := allocs(10), allocs(1000)
	if many > few {
		t.Fatalf("allocs per run: %v at 1000 rounds vs %v at 10; blocking must not allocate", many, few)
	}
}

// TestProcGoexitEndsRunCaller checks runtime.Goexit in a serial engine's
// process body (t.FailNow, say) ends the goroutine that called Run, and
// that Run's own bookkeeping still unwinds.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	e := NewEngine()
	e.Spawn("quitter", func(p *Proc) {
		p.Wait(1)
		runtime.Goexit()
	})
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		e.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after a process called runtime.Goexit")
	}
	if e.running {
		t.Fatal("engine still marked running after Goexit unwound Run")
	}
}

// TestShardedGoexitPanics checks runtime.Goexit in a domain's process body
// surfaces as a panic from ShardedEngine.Run instead of stranding the
// coordinator at the barrier.
func TestShardedGoexitPanics(t *testing.T) {
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "domain 1 called runtime.Goexit") {
			t.Fatalf("recovered %v, want the Goexit diagnostic for domain 1", r)
		}
	}()
	sh := NewSharded(2, 1e-6)
	sh.Engine(1).Spawn("quitter", func(p *Proc) {
		p.Wait(0.5)
		runtime.Goexit()
	})
	sh.Run()
	t.Fatal("Run returned after a process called runtime.Goexit")
}

// TestRunnerRecycling checks a finished process's runner waits on the idle
// list while there is room under the cap, holding no reference to the
// process, and that the next engine's processes reuse it rather than
// starting new coroutines. It sets its own
// cap, so it covers both outcomes whatever the build's cap is.
func TestRunnerRecycling(t *testing.T) {
	idleRunners.Lock()
	saved, savedMax := idleRunners.rs, idleRunners.max
	idleRunners.rs, idleRunners.max = nil, 6
	idleRunners.Unlock()
	defer func() {
		idleRunners.Lock()
		for _, r := range idleRunners.rs {
			r.stop()
		}
		idleRunners.rs, idleRunners.max = saved, savedMax
		idleRunners.Unlock()
	}()
	seen := map[*runner]bool{}
	run := func() (reused int) {
		e := NewEngine()
		for i := 0; i < 10; i++ {
			e.Spawn("worker", func(p *Proc) {
				if seen[p.r] {
					reused++
				}
				seen[p.r] = true
				p.Wait(1)
			})
		}
		e.Run()
		return reused
	}
	run()
	if n := len(idleRunners.rs); n != 6 {
		t.Fatalf("%d idle runners after 10 processes finished under a cap of 6, want 6", n)
	}
	for _, r := range idleRunners.rs {
		if r.p != nil {
			t.Fatalf("idle runner still references finished process %q", r.p.name)
		}
	}
	if n := run(); n != 6 {
		t.Fatalf("second engine reused %d runners, want the 6 kept by the first", n)
	}
}
