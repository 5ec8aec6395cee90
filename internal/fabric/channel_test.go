package fabric

import (
	"testing"
	"testing/quick"

	"anton2/internal/packet"
	"anton2/internal/sim"
	"anton2/internal/topo"
	"anton2/internal/wire"
)

func meshChan(track bool) *Channel {
	return New(Config{
		Name: "test", Group: topo.GroupM, Latency: 1,
		RateMilli: MeshRateMilli, NumVCs: 4, BufFlits: 4,
		CreditLatency: 1, TrackEnergy: track,
	})
}

func pkt(size uint8) *packet.Packet { return &packet.Packet{Size: size} }

func TestChannelCreditAccounting(t *testing.T) {
	ch := meshChan(false)
	if !ch.CanSend(0, 2, 1) {
		t.Fatal("fresh channel must have full credit")
	}
	// Exhaust VC 2's credit (4 flits) with two 2-flit packets.
	ch.Send(0, pkt(2), 2)
	ch.Send(2, pkt(2), 2)
	if ch.CanSend(4, 2, 1) {
		t.Fatal("VC 2 should be out of credit")
	}
	if !ch.CanSend(4, 1, 2) {
		t.Fatal("other VCs must be unaffected")
	}
	// Return one flit: enough for a 1-flit packet, not a 2-flit one.
	ch.ReturnCredit(4, 2, 1)
	ch.AbsorbCredits(5)
	if !ch.CanSend(5, 2, 1) || ch.CanSend(5, 2, 2) {
		t.Fatalf("credit = %d, want exactly 1", ch.Credits(2))
	}
}

func TestChannelCreditLatency(t *testing.T) {
	ch := meshChan(false)
	ch.Send(0, pkt(1), 0)
	ch.ReturnCredit(10, 0, 1)
	ch.AbsorbCredits(10)
	if ch.Credits(0) != 3 {
		t.Fatalf("credit visible same cycle; got %d", ch.Credits(0))
	}
	ch.AbsorbCredits(11)
	if ch.Credits(0) != 4 {
		t.Fatalf("credit after latency = %d, want 4", ch.Credits(0))
	}
}

func TestChannelMeshTiming(t *testing.T) {
	ch := meshChan(false)
	p := pkt(1)
	ch.Send(5, p, 0)
	if _, ok := ch.Recv(5); ok {
		t.Fatal("same-cycle delivery")
	}
	got, ok := ch.Recv(6)
	if !ok || got != p {
		t.Fatalf("Recv(6) = %v, %v", got, ok)
	}
	if got.CurVC != 0 {
		t.Errorf("CurVC = %d, want 0", got.CurVC)
	}
	// Two-flit packet: last flit clears at start+2, arrival at +2 (latency
	// 1 overlaps serialization tail).
	p2 := pkt(2)
	ch.Send(10, p2, 1)
	if _, ok := ch.Recv(11); ok {
		t.Fatal("2-flit packet cannot arrive after one cycle")
	}
	if _, ok := ch.Recv(12); !ok {
		t.Fatal("2-flit packet should arrive at cycle 12")
	}
}

func TestChannelBackToBackMeshRate(t *testing.T) {
	ch := meshChan(false)
	ch.Send(0, pkt(1), 0)
	if !ch.CanSend(1, 1, 1) {
		t.Fatal("mesh channel must accept one flit per cycle")
	}
	ch.Send(1, pkt(1), 1)
	if ch.CanSend(1, 2, 1) {
		t.Fatal("channel accepted two flits in one cycle")
	}
}

func TestChannelTorusSerialization(t *testing.T) {
	ch := New(Config{
		Name: "torus", Group: topo.GroupT, Latency: 10,
		RateMilli: topo.TorusRateMilli, NumVCs: 8, BufFlits: 32,
	})
	// Send at cycle 0: serializer busy until 3.214 cycles.
	ch.Send(0, pkt(1), 0)
	if ch.CanSend(1, 0, 1) || ch.CanSend(2, 0, 1) {
		t.Fatal("torus serializer should still be busy at cycles 1-2")
	}
	if !ch.CanSend(3, 0, 1) {
		t.Fatal("torus serializer frees within cycle 3 (3.214 cycles/flit)")
	}
	// Arrival: ceil(3.214) + latency - 1 = 4 + 9 = 13.
	if _, ok := ch.Recv(12); ok {
		t.Fatal("arrived too early")
	}
	if _, ok := ch.Recv(13); !ok {
		t.Fatal("should arrive at cycle 13")
	}
	// Sustained rate: 14 flits per 45 cycles (89.6 Gb/s of 288). Over
	// 900 cycles that is exactly 280 flits (+1 tolerance for the idle
	// bucket at the window start).
	sent := 0
	for now := uint64(100); now < 100+900; now++ {
		ch.AbsorbCredits(now)
		if ch.CanSend(now, 1, 1) {
			ch.Send(now, pkt(1), 1)
			ch.ReturnCredit(now, 1, 1) // downstream drains immediately
			sent++
		}
	}
	if sent < 280 || sent > 281 {
		t.Fatalf("sustained %d flits in 900 cycles, want 280 (45/14 cycles per flit)", sent)
	}
}

func TestChannelEnergyActivations(t *testing.T) {
	ch := meshChan(true)
	// Pattern: flits at cycles 0,1 (one activation), gap, 4 (second), 5,6.
	for _, c := range []uint64{0, 1, 4, 5, 6} {
		ch.Send(c, pkt(1), 0)
		ch.ReturnCredit(c, 0, 1)
		ch.AbsorbCredits(c + 1)
	}
	if ch.Energy.Flits != 5 {
		t.Errorf("flits = %d, want 5", ch.Energy.Flits)
	}
	if ch.Energy.Activations != 2 {
		t.Errorf("activations = %d, want 2 (cycles 0 and 4)", ch.Energy.Activations)
	}
}

func TestChannelEnergyHammingAndSetBits(t *testing.T) {
	ch := meshChan(true)
	mk := func(b byte) *packet.Packet {
		p := pkt(1)
		p.Payload = []byte{b, b}
		return p
	}
	ch.Send(0, mk(0x00), 0)
	ch.ReturnCredit(0, 0, 1)
	ch.AbsorbCredits(1)
	ch.Send(1, mk(0xFF), 0) // 16 bit flips vs previous, 16 set bits
	ch.ReturnCredit(1, 0, 1)
	ch.AbsorbCredits(2)
	ch.Send(2, mk(0xFF), 0) // 0 flips, 16 set bits
	if ch.Energy.HammingSum != 16 {
		t.Errorf("hamming = %d, want 16", ch.Energy.HammingSum)
	}
	if ch.Energy.SetBitsSum != 32 {
		t.Errorf("set bits = %d, want 32", ch.Energy.SetBitsSum)
	}
}

func TestChannelSendWithoutCreditPanics(t *testing.T) {
	ch := meshChan(false)
	for i := 0; i < 4; i++ {
		ch.Send(uint64(i), pkt(1), 3)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Send without credit must panic")
		}
	}()
	ch.Send(10, pkt(1), 3)
}

func TestHammingAndSetBitsHelpers(t *testing.T) {
	if d := packet.HammingDistance([]byte{0x0F}, []byte{0xF0}); d != 8 {
		t.Errorf("HammingDistance = %d, want 8", d)
	}
	if d := packet.HammingDistance(nil, []byte{0xFF}); d != 8 {
		t.Errorf("HammingDistance vs nil = %d, want 8", d)
	}
	if n := packet.SetBits([]byte{0x01, 0x03, 0x07}); n != 6 {
		t.Errorf("SetBits = %d, want 6", n)
	}
}

func TestSizeForPayload(t *testing.T) {
	if packet.SizeForPayload(16) != 1 || packet.SizeForPayload(17) != 2 || packet.SizeForPayload(32) != 2 {
		t.Error("flit sizing wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized payload must panic")
		}
	}()
	packet.SizeForPayload(33)
}

// TestChannelCreditInvariantProperty: under random interleavings of sends,
// credit returns, and time advances, the sender-side credit never exceeds
// the buffer capacity and never goes negative, and flits are conserved.
func TestChannelCreditInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const bufFlits = 4
		ch := New(Config{
			Name: "prop", Group: topo.GroupM, Latency: 1,
			RateMilli: MeshRateMilli, NumVCs: 2, BufFlits: bufFlits,
		})
		now := uint64(0)
		sent, received, returned := 0, 0, 0
		var held [2]int // per-VC packets awaiting credit return
		for _, op := range ops {
			vc := uint8(op>>4) & 1
			switch op % 4 {
			case 0: // try to send
				if ch.CanSend(now, vc, 1) {
					ch.Send(now, &packet.Packet{Size: 1}, vc)
					sent++
				}
			case 1: // receiver polls
				if p, ok := ch.Recv(now); ok {
					received++
					held[p.CurVC]++
				}
			case 2: // receiver returns one credit on a VC it holds
				if held[vc] > 0 {
					ch.ReturnCredit(now, vc, 1)
					held[vc]--
					returned++
				}
			case 3:
				now++
				ch.AbsorbCredits(now)
			}
			if received > sent || returned > received {
				return false // conservation violated
			}
			for v := uint8(0); v < 2; v++ {
				if ch.Credits(v) < 0 || ch.Credits(v) > bufFlits {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestChannelReadyMasks: a bound channel keeps its bit of the receiver's
// inMask set exactly while packets are in flight and its bit of the sender's
// credMask exactly while credits are; and a restored channel re-derives both
// bits from its in-flight entries.
func TestChannelReadyMasks(t *testing.T) {
	var inMask, credMask uint32
	bind := func(ch *Channel) {
		ch.BindReceiver(nil, 0, &inMask, 3)
		ch.BindSender(nil, 0, &credMask, 5)
	}
	want := func(when string, in, cred uint32) {
		t.Helper()
		if inMask != in || credMask != cred {
			t.Fatalf("%s: inMask %#x credMask %#x, want %#x %#x", when, inMask, credMask, in, cred)
		}
	}
	ch := meshChan(false)
	bind(ch)
	inMask, credMask = 1, 1 // other ports' bits must survive
	ch.Send(0, pkt(1), 0)
	ch.Send(1, pkt(1), 1)
	want("after sends", 1|1<<3, 1)
	if _, ok := ch.Recv(0); ok {
		t.Fatal("nothing is due at cycle 0")
	}
	want("after a not-yet-due poll", 1|1<<3, 1)
	ch.Recv(1)
	want("one packet still in flight", 1|1<<3, 1)
	ch.Recv(2)
	want("packet pipe drained", 1, 1)
	ch.ReturnCredit(2, 0, 1)
	want("credit in flight", 1, 1|1<<5)
	ch.AbsorbCredits(2)
	want("credit not yet due", 1, 1|1<<5)
	ch.AbsorbCredits(3)
	want("credit pipe drained", 1, 1)

	ch.Send(3, pkt(1), 0)
	ch.ReturnCredit(3, 1, 1)
	want("both in flight", 1|1<<3, 1|1<<5)

	st, err := ch.AppendState(nil, func(*packet.Packet) uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	inMask, credMask = 0, 0
	fresh := meshChan(false)
	bind(fresh)
	r := wire.NewReader(st)
	if fresh.ReadState(r, func(uint64) *packet.Packet { return pkt(1) }); r.Err() != nil || r.Len() != 0 {
		t.Fatalf("restore: err %v, %d bytes unread", r.Err(), r.Len())
	}
	want("restored", 1<<3, 1<<5)
	if again, _ := fresh.AppendState(nil, func(*packet.Packet) uint64 { return 0 }); string(again) != string(st) {
		t.Errorf("restored channel re-encodes to %x, want %x", again, st)
	}
}

// tickFn adapts a function to sim.Component.
type tickFn func(now uint64)

func (f tickFn) Tick(now uint64) { f(now) }

// TestChannelStaging: a shard-crossing channel stages its sends and credit
// returns only while shard workers run — touching neither mask word and filing
// itself once on each staging shard's list, which the barrier flushes — and in
// a serially stepped cycle of the same engine puts both straight into the
// pipes. Either way the cycle ends in the same state.
func TestChannelStaging(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var inMask, credMask uint32
		var snd, recv StageList
		e := sim.NewEngineMode(sim.ModeActive)
		ch := meshChan(false)
		ch.SetDeferred(&snd, &recv)
		sender := e.Register(tickFn(func(now uint64) {
			if now == 0 {
				ch.Send(now, pkt(1), 0)
			}
		}))
		receiver := e.Register(tickFn(func(now uint64) {
			if now == 0 {
				ch.ReturnCredit(now, 1, 1)
				ch.ReturnCredit(now, 2, 1)
			}
		}))
		ch.BindSender(e, sender, &credMask, 5)
		ch.BindReceiver(e, receiver, &inMask, 3)
		merged := false
		e.ConfigureShards([]sim.ShardRange{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}}, 0, func(uint64) {
			merged = true
			if inMask|credMask != 0 || ch.InFlight() != 0 || ch.CreditsInFlight() != 0 {
				t.Errorf("staged traffic reached the pipes before the barrier: inMask %#x credMask %#x", inMask, credMask)
			}
			if len(snd.chans) != 1 || len(recv.chans) != 1 {
				t.Errorf("stage lists hold %d and %d channels, want 1 and 1", len(snd.chans), len(recv.chans))
			}
			snd.Flush()
			recv.Flush()
		})
		e.ForceParallelForTest(func(uint64) bool { return parallel })
		e.Step()
		if merged != parallel {
			t.Fatalf("parallel=%v: merge ran %v", parallel, merged)
		}
		if inMask != 1<<3 || credMask != 1<<5 || ch.InFlight() != 1 || ch.CreditsInFlight() != 2 {
			t.Errorf("parallel=%v: after the cycle inMask %#x credMask %#x, %d packets and %d credits in flight; want %#x %#x 1 2",
				parallel, inMask, credMask, ch.InFlight(), ch.CreditsInFlight(), 1<<3, 1<<5)
		}
		if len(snd.chans)+len(recv.chans) != 0 {
			t.Errorf("parallel=%v: stage lists not emptied", parallel)
		}
	}
}

// TestChannelVCBound: the inline credit array is the VC limit.
func TestChannelVCBound(t *testing.T) {
	New(Config{Name: "widest", NumVCs: MaxVCs, BufFlits: 4})
	defer func() {
		if recover() == nil {
			t.Fatalf("a channel with %d VCs must panic", MaxVCs+1)
		}
	}()
	New(Config{Name: "too wide", NumVCs: MaxVCs + 1, BufFlits: 4})
}
