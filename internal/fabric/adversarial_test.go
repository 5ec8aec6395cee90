package fabric

import (
	"math"
	"testing"

	"anton2/internal/topo"
)

// Adversarial schedules for the channel's fault-facing surface: stall
// boundary conditions, back-to-back stall/resume, and credit returns that
// arrive reordered, split, or dropped-and-restored.

func TestChannelStallBoundary(t *testing.T) {
	ch := meshChan(false)
	ch.SetStall(10)
	if ch.CanSend(9, 0, 1) || !ch.Stalled(9) {
		t.Error("channel must refuse frames strictly before stallUntil")
	}
	if !ch.CanSend(10, 0, 1) || ch.Stalled(10) {
		t.Error("channel must resume exactly at stallUntil")
	}
	ch.SetStall(math.MaxUint64)
	if ch.CanSend(1<<40, 0, 1) {
		t.Error("permanent outage must never resume")
	}
	ch.SetStall(0)
	if !ch.CanSend(0, 0, 1) {
		t.Error("clearing the stall must restore service")
	}
}

func TestChannelBackToBackStallResume(t *testing.T) {
	ch := meshChan(false)
	now := uint64(0)
	sent := 0
	// Alternate single-cycle stalls with immediate resumes; the channel
	// must accept a frame on every unstalled cycle once credit allows.
	for i := 0; i < 32; i++ {
		if i%2 == 0 {
			ch.SetStall(now + 1) // stalled for exactly this cycle
			if ch.CanSend(now, 0, 1) {
				t.Fatalf("cycle %d: send allowed during stall", now)
			}
		} else if ch.CanSend(now, 0, 1) {
			ch.Send(now, pkt(1), 0)
			sent++
		}
		// Drain the downstream buffer promptly so credit never gates.
		if p, ok := ch.Recv(now); ok {
			ch.ReturnCredit(now, p.CurVC, p.Size)
		}
		ch.AbsorbCredits(now + 1)
		now++
	}
	if sent == 0 {
		t.Fatal("no frames made it through the stall/resume schedule")
	}
	// Drain whatever is still in flight and check conservation: every sent
	// flit is either received or nothing.
	for end := now + ch.Latency() + 2; now < end; now++ {
		if p, ok := ch.Recv(now); ok {
			ch.ReturnCredit(now, p.CurVC, p.Size)
		}
		ch.AbsorbCredits(now)
	}
	if !ch.Quiet() {
		t.Errorf("channel not quiet after drain: %d in flight", ch.InFlight())
	}
	if ch.Credits(0) != ch.BufFlits() {
		t.Errorf("credit = %d after full drain, want %d", ch.Credits(0), ch.BufFlits())
	}
}

// TestChannelCreditReturnReordering returns credits split into fragments, in
// reversed VC order, bunched onto one cycle; the sender-side counters must
// come back to exactly full with no VC ever exceeding its buffer.
func TestChannelCreditReturnReordering(t *testing.T) {
	ch := meshChan(false)
	// Exhaust every VC (buffer = 4 flits, packets of 2), spacing sends so
	// the shared serializer (one flit per cycle) never gates.
	for seq := uint64(0); seq < 8; seq++ {
		ch.Send(seq*2, pkt(2), uint8(seq%4))
	}
	for now := uint64(0); now < 20; now++ {
		ch.Recv(now)
	}
	// Return in reverse VC order, one flit at a time, all on cycle 20 —
	// the opposite of the orderly per-packet returns the adapters produce.
	for vc := 3; vc >= 0; vc-- {
		for f := 0; f < 4; f++ {
			ch.ReturnCredit(20, uint8(vc), 1)
		}
	}
	ch.AbsorbCredits(21)
	for vc := uint8(0); vc < 4; vc++ {
		if got := ch.Credits(vc); got != ch.BufFlits() {
			t.Errorf("VC %d credit = %d after reordered returns, want %d", vc, got, ch.BufFlits())
		}
	}
}

// TestChannelCreditLossRestoreInterleaved drops every other credit return and
// interleaves restores with live traffic; the lost-credit ledger must stay
// exact and a final restore must rebuild full credit.
func TestChannelCreditLossRestoreInterleaved(t *testing.T) {
	ch := meshChan(false)
	n := 0
	ch.EnableCreditLoss(func(vc, flits uint8) bool {
		n++
		return n%2 == 1
	})
	dropped := 0
	for now := uint64(0); now < 40; now++ {
		ch.AbsorbCredits(now)
		if ch.CanSend(now, 1, 1) {
			ch.Send(now, pkt(1), 1)
		}
		if p, ok := ch.Recv(now); ok {
			before := ch.LostCredits()
			ch.ReturnCredit(now, p.CurVC, p.Size)
			dropped += ch.LostCredits() - before
		}
		// Mid-run restore: the audit may fire at any moment, including
		// with packets in flight.
		if now == 20 {
			if got := ch.RestoreLostCredits(); got != dropped {
				t.Fatalf("restore returned %d, ledger said %d", got, dropped)
			}
			dropped = 0
			if ch.LostCredits() != 0 {
				t.Fatal("ledger not cleared by restore")
			}
		}
	}
	// Final drain and restore: credit must come back to exactly BufFlits.
	for now := uint64(40); now < 50; now++ {
		ch.AbsorbCredits(now)
		if p, ok := ch.Recv(now); ok {
			ch.ReturnCredit(now, p.CurVC, p.Size)
		}
	}
	ch.RestoreLostCredits()
	ch.AbsorbCredits(51)
	if got := ch.Credits(1); got != ch.BufFlits() {
		t.Errorf("VC 1 credit = %d after drain+restore, want %d", got, ch.BufFlits())
	}
}

// TestChannelStallHoldsInFlightDelivery: stalling only gates new sends — a
// packet already serialized must still arrive, and its credit return must
// still complete, while the channel refuses fresh frames.
func TestChannelStallHoldsInFlightDelivery(t *testing.T) {
	ch := New(Config{
		Name: "torus", Group: topo.GroupT, Latency: 5,
		RateMilli: topo.TorusRateMilli, NumVCs: 2, BufFlits: 8,
		CreditLatency: 1,
	})
	arrive := ch.Send(0, pkt(2), 0)
	ch.SetStall(math.MaxUint64)
	p, ok := ch.Recv(arrive)
	if !ok {
		t.Fatal("in-flight packet lost to a stall")
	}
	ch.ReturnCredit(arrive, p.CurVC, p.Size)
	ch.AbsorbCredits(arrive + 1)
	if got := ch.Credits(0); got != ch.BufFlits() {
		t.Errorf("credit = %d after stalled-channel drain, want %d", got, ch.BufFlits())
	}
	if ch.CanSend(arrive+1, 0, 1) {
		t.Error("stalled channel accepted a new frame")
	}
}
