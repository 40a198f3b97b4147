package network

import (
	"testing"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
	"xtsim/internal/torus"
)

// fuzzMsgs decodes a fuzz input into SN messages on an n-node fabric, four
// bytes per message: source, destination, size and the gap to the
// previous departure. Sizes run from 0 B to ~8 MB, across the rendezvous
// switch; gaps of 0–25.5 µs keep earlier transfers in flight, so messages
// contend on shared links and injection ports.
func fuzzMsgs(data []byte, n int) (msgs []Msg, departs []sim.Time) {
	const maxMsgs = 64
	at := sim.Time(0)
	for i := 0; i+4 <= len(data) && len(msgs) < maxMsgs; i += 4 {
		b := data[i : i+4]
		at += float64(b[3]) * 1e-7
		msgs = append(msgs, Msg{
			SrcNode: int(b[0]) % n,
			DstNode: int(b[1]) % n,
			Bytes:   int64(b[2]) << (b[2] % 16),
			Mode:    machine.SN,
		})
		departs = append(departs, at)
	}
	return msgs, departs
}

// FuzzPricersAgree pins serial, sharded and exact-hybrid delivery to the
// one send-side walk (priceSend) by differential testing on a 6×6×6 XT4
// torus:
//
//   - traffic from one sending rank gets bit-identical Timelines from an
//     exact HybridSession and from serial Deliver;
//   - on a two-slab sharded fabric, a message whose whole route is
//     slab-owned gets the serial Timeline bit for bit, unless it crosses a
//     link whose state the two fabrics no longer share (one an earlier
//     message reserved in serial mode only);
//   - ForeignHops counts exactly the route hops from the first link owned
//     by another slab on, and injection, always slab-owned, always agrees.
func FuzzPricersAgree(f *testing.F) {
	// Nearest-neighbour burst (the sharded engine's target traffic).
	f.Add([]byte{0, 1, 40, 0, 0, 6, 40, 0, 0, 36, 40, 0, 1, 0, 40, 0, 6, 0, 40, 3})
	// Long Z legs across the slab boundary, eager and rendezvous sizes.
	f.Add([]byte{72, 180, 200, 0, 73, 181, 255, 0, 108, 0, 9, 1, 72, 180, 30, 0, 180, 72, 250, 5})
	// Many-to-one onto a shared tail, then a reversed flow over the same links.
	f.Add([]byte{10, 200, 100, 0, 11, 200, 100, 0, 46, 200, 100, 0, 200, 10, 100, 0, 200, 11, 120, 2, 10, 200, 100, 9})
	// Self-sends and zero-byte messages between remote ones.
	f.Add([]byte{5, 5, 77, 0, 5, 150, 0, 0, 150, 5, 0, 0, 5, 150, 64, 255, 99, 99, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := machine.XT4()
		const nodes = 216
		msgs, departs := fuzzMsgs(data, nodes)

		// One sender: exact session vs serial fabric.
		serial1 := New(sim.NewEngine(), m, nodes)
		sess, reason := New(sim.NewEngine(), m, nodes).BeginHybrid(true)
		if sess == nil {
			t.Fatalf("BeginHybrid declined: %s", reason)
		}
		for i, msg := range msgs {
			msg.SrcNode = msgs[0].SrcNode
			want := serial1.Deliver(departs[i], msg, nil)
			got, err := sess.Price(departs[i], msg, 0)
			if err != nil {
				t.Fatalf("msg %d %v: single-owner exact session failed: %v", i, msg, err)
			}
			if got != want {
				t.Fatalf("msg %d %v: exact %+v, serial %+v", i, msg, got, want)
			}
		}

		// Every sender: two-slab sharded fabric vs serial fabric.
		serial2 := New(sim.NewEngine(), m, nodes)
		sh := sim.NewSharded(2, Lookahead(m))
		sharded := New(sh.Engine(0), m, nodes)
		part := torus.NewPartition(sharded.Tor, 2)
		if part.NumDomains() != 2 {
			t.Fatalf("partition %v: want two slabs", part)
		}
		sharded.EnableParallel(sh, part)
		stale := make([]bool, serial2.Tor.NumLinks()) // link state differs between the fabrics
		var wantForeign uint64
		for i, msg := range msgs {
			want := serial2.Deliver(departs[i], msg, nil)
			got := sharded.Deliver(departs[i], msg, nil)
			if got.Injected != want.Injected {
				t.Fatalf("msg %d %v: sharded injection %v, serial %v", i, msg, got.Injected, want.Injected)
			}

			var route []torus.Link
			if msg.SrcNode != msg.DstNode {
				route = serial2.Tor.Route(msg.SrcNode, msg.DstNode)
			}
			srcDom := part.DomainOf(msg.SrcNode)
			firstForeign := len(route)
			for h, l := range route {
				if part.DomainOf(l.From) != srcDom {
					firstForeign = h
					break
				}
			}
			wantForeign += uint64(len(route) - firstForeign)
			if fh := sharded.ForeignHops(); fh != wantForeign {
				t.Fatalf("msg %d %v: ForeignHops %d, want %d", i, msg, fh, wantForeign)
			}

			// From the first foreign or stale link on, the serial fabric
			// reserved what the sharded one did not (or on a different
			// busy state), so those links go stale.
			diverge := firstForeign
			for h, l := range route[:firstForeign] {
				if stale[serial2.Tor.LinkID(l)] {
					diverge = h
					break
				}
			}
			if diverge == len(route) {
				if got != want {
					t.Fatalf("msg %d %v: slab-owned route, sharded %+v, serial %+v", i, msg, got, want)
				}
				continue
			}
			for _, l := range route[diverge:] {
				stale[serial2.Tor.LinkID(l)] = true
			}
		}
	})
}
