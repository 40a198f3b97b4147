package sim

import "testing"

// BenchmarkEngineEvents measures the steady-state cost of one scheduled
// event (push + pop + dispatch) with a realistically deep queue: 1024
// self-rescheduling timers are kept in flight, so every operation pays a
// full sift through several heap levels.
func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine()
	width := 1024
	if width > b.N {
		width = b.N
	}
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired <= b.N-width {
			e.After(1, tick)
		}
	}
	for i := 0; i < width; i++ {
		// Stagger seeds so the heap holds distinct timestamps.
		e.At(Time(i)/Time(width), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// BenchmarkProcSwitch measures one blocking-operation round trip: two
// processes ping-pong through a pair of mailboxes, so each iteration is two
// yield/wake cycles (four coroutine switches). This is the cost every
// simulated Recv, resource acquisition, and rendezvous pays.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	var ping, pong Mailbox[struct{}]
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Send(struct{}{})
			pong.Recv(p)
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Recv(p)
			pong.Send(struct{}{})
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcWait measures a pure timer block: one process repeatedly
// waiting. Each iteration is one timer event plus one coroutine switch
// pair.
func BenchmarkProcWait(b *testing.B) {
	e := NewEngine()
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
