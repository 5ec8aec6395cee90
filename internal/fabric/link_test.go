package fabric

import (
	"bytes"
	"math"
	"testing"

	"anton2/internal/fault"
	"anton2/internal/packet"
	"anton2/internal/sim"
	"anton2/internal/topo"
	"anton2/internal/wire"
)

// TestReliableChannel drives one reliable torus channel between two engine
// components that use it as a lossless one — SendableAt/Send, Recv and
// ReturnCredit, plus the sender's LinkTick and LinkWake — while the wire
// corrupts about one frame in ten and the channel stalls mid-run. The
// receiver must be handed every packet exactly once and in send order;
// InFlight must count sent minus accepted on every cycle; the receiver's
// ready bit must be set exactly while the frame pipe is non-empty, also right
// after a drop emptied it; a mid-run State+LinkState round trip must
// re-encode to the same bytes; and the link must end quiet, having counted
// retransmissions, nacks and timeouts. The sender sleeps until LinkWake or
// SendableAt names a cycle, so the active-set run must end on the cycle the
// scan run does, with the same counters.
func TestReliableChannel(t *testing.T) {
	scanEnd, scanCnt := runReliable(t, sim.ModeScan)
	activeEnd, activeCnt := runReliable(t, sim.ModeActive)
	if activeEnd != scanEnd || activeCnt != scanCnt {
		t.Fatalf("active run ended at cycle %d with %+v, scan run at %d with %+v", activeEnd, activeCnt, scanEnd, scanCnt)
	}
	if c := scanCnt; c.Retransmits == 0 || c.Nacks == 0 || c.Timeouts == 0 || c.CorruptInjected == 0 || c.CorruptDetected != c.CorruptInjected {
		t.Errorf("link counters %+v: want retransmits, nacks, timeouts and every corruption detected", c)
	}
}

// runReliable is one TestReliableChannel run on an engine of the given mode;
// it returns the cycle the link drained by and its counters.
func runReliable(t *testing.T, mode sim.Mode) (uint64, fault.Counters) {
	t.Helper()
	const (
		packets   = 600
		inBit     = 2
		stallAt   = 900
		snapAt    = 700
		maxCycles = 200_000
	)
	cfg := Config{
		Group: topo.GroupT, Latency: topo.TorusLatency,
		RateMilli: topo.TorusRateMilli, NumVCs: 2, BufFlits: 16, CreditLatency: topo.TorusLatency,
	}
	rng := uint64(1)
	e := sim.NewEngineMode(mode)
	ch := newChan(cfg)
	ch.EnableLink(func() bool { return float64(sim.SplitMix64(&rng)>>11)/(1<<53) < 0.1 })

	var inMask, credMask uint32
	var sent, accepted []*packet.Packet
	droppedLast := 0 // drops that emptied the pipe
	var sender int
	sender = e.Register(tickFn(func(now uint64) {
		if credMask != 0 {
			ch.AbsorbCredits(now)
		}
		if _, err := ch.LinkTick(now, nil); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		wake := ch.LinkWake(now)
		if len(sent) < packets {
			size, vc := uint8(1+len(sent)%2), uint8(len(sent)%2)
			if ch.SendableAt(vc, size) <= now {
				p := &packet.Packet{Size: size, InjectedAt: uint64(len(sent))}
				ch.Send(now, p, vc)
				sent = append(sent, p)
				size, vc = uint8(1+len(sent)%2), uint8(len(sent)%2)
			}
			if len(sent) < packets {
				wake = min(wake, max(ch.SendableAt(vc, size), now+1))
			}
		}
		if wake != math.MaxUint64 {
			e.Wake(sender, wake)
		}
	}))
	receiver := e.Register(tickFn(func(now uint64) {
		for inMask != 0 {
			p, ok := ch.Recv(now)
			if got, want := inMask != 0, !ch.pkts.Empty(); got != want {
				t.Fatalf("cycle %d: ready bit %v after Recv with %d frames in the pipe", now, got, ch.pkts.Len())
			}
			if !ok {
				break
			}
			if p == nil {
				if ch.pkts.Empty() {
					droppedLast++
				}
				continue
			}
			accepted = append(accepted, p)
			ch.ReturnCredit(now, p.CurVC, p.Size)
		}
	}))
	ch.BindSender(e, sender, &credMask, 0)
	ch.BindReceiver(e, receiver, &inMask, inBit)

	for now := uint64(0); len(accepted) < packets || !ch.Quiet(); now++ {
		if now == maxCycles {
			t.Fatalf("no drain by cycle %d: %d of %d packets accepted", now, len(accepted), packets)
		}
		if now == stallAt {
			ch.SetStall(now + 3*topo.TorusLatency)
		}
		if now == snapAt {
			if ch.InFlight() == 0 {
				t.Fatalf("cycle %d: nothing in flight to snapshot", now)
			}
			roundTrip(t, ch, cfg)
		}
		e.Run(1)
		if got, want := ch.InFlight(), len(sent)-len(accepted); got != want {
			t.Fatalf("cycle %d: InFlight %d, want sent %d - accepted %d", now, got, len(sent), len(accepted))
		}
		if got, want := inMask != 0, !ch.pkts.Empty(); got != want {
			t.Fatalf("cycle %d: ready bit %v with %d frames in the pipe", now, got, ch.pkts.Len())
		}
	}
	if len(accepted) != packets {
		t.Fatalf("accepted %d of %d packets", len(accepted), packets)
	}
	for i, p := range accepted {
		if p != sent[i] {
			t.Fatalf("packet %d handed up is packet %d sent", i, p.InjectedAt)
		}
	}
	if droppedLast == 0 {
		t.Error("no dropped frame ever emptied the pipe: the ready-bit check on that path is vacuous")
	}
	return e.Now(), ch.LinkCounters()
}

// roundTrip codes ch's State and LinkState, decodes them into a fresh
// reliable channel of the same config and requires the same bytes back.
func roundTrip(t *testing.T, ch *Channel, cfg Config) {
	t.Helper()
	var table []*packet.Packet
	walk := func(ch *Channel, c *wire.Codec) *wire.Codec {
		ref := func(p *packet.Packet, _ bool) *packet.Packet {
			i := uint64(len(table))
			if !c.Decoding() {
				for j, q := range table {
					if q == p {
						i = uint64(j)
					}
				}
				if i == uint64(len(table)) {
					table = append(table, p)
				}
			}
			if c.Uvarint(&i); c.Decoding() {
				if i >= uint64(len(table)) {
					c.Fail("packet %d of %d", i, len(table))
					return nil
				}
				return table[i]
			}
			return p
		}
		ch.State(c, ref)
		ch.LinkState(c, ref)
		return c
	}
	enc := walk(ch, wire.NewEncoder(nil))
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	fresh := newChan(cfg)
	fresh.EnableLink(func() bool { return false })
	if dec := walk(fresh, wire.NewDecoder(enc.Buf())); dec.Err() != nil || len(dec.Buf()) != 0 {
		t.Fatalf("restore: err %v, %d bytes unread", dec.Err(), len(dec.Buf()))
	}
	if again := walk(fresh, wire.NewEncoder(nil)); !bytes.Equal(again.Buf(), enc.Buf()) {
		t.Fatalf("restored reliable channel re-encodes to %d bytes, want the %d it was restored from", len(again.Buf()), len(enc.Buf()))
	}
}
