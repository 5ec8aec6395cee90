package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

type counter struct {
	e     *Engine
	ticks []uint64
}

func (c *counter) Tick(now uint64) {
	c.ticks = append(c.ticks, now)
	c.e.Progress()
}

func TestEngineStepAdvancesClock(t *testing.T) {
	e := NewEngineMode(ModeScan)
	c := &counter{e: e}
	e.Register(c)
	e.Run(5)
	if e.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", e.Now())
	}
	want := []uint64{0, 1, 2, 3, 4}
	if len(c.ticks) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(c.ticks), len(want))
	}
	for i, w := range want {
		if c.ticks[i] != w {
			t.Errorf("tick %d at cycle %d, want %d", i, c.ticks[i], w)
		}
	}
}

func TestRunUntilDone(t *testing.T) {
	e := NewEngineMode(ModeScan)
	c := &counter{e: e}
	e.Register(c)
	err := e.RunUntil(func() bool { return e.Now() >= 10 }, 100, 50)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
}

func TestRunUntilTimeout(t *testing.T) {
	e := NewEngineMode(ModeScan)
	c := &counter{e: e}
	e.Register(c)
	err := e.RunUntil(func() bool { return false }, 20, 0)
	var te *ErrTimeout
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

type idle struct{}

func (idle) Tick(uint64) {}

func TestRunUntilDeadlock(t *testing.T) {
	e := NewEngineMode(ModeScan)
	e.Register(idle{})
	err := e.RunUntil(func() bool { return false }, 1000, 10)
	var de *ErrDeadlock
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if de.Cycle > 11 {
		t.Errorf("deadlock flagged at cycle %d, want within watchdog window", de.Cycle)
	}
}

// stallAfter makes progress for the first n cycles, then wedges.
type stallAfter struct {
	e *Engine
	n uint64
}

func (s *stallAfter) Tick(now uint64) {
	if now < s.n {
		s.e.Progress()
	}
}

// TestDeadlockSnapshot: the watchdog error must carry the cycle it fired,
// the last-progress cycle, and the DeadlockDetail provider's snapshot, and
// render all three in its message.
func TestDeadlockSnapshot(t *testing.T) {
	e := NewEngineMode(ModeScan)
	e.Register(&stallAfter{e: e, n: 7})
	detailCalls := 0
	e.DeadlockDetail = func() string {
		detailCalls++
		return "router 3 vc 1: 2 pkts blocked"
	}
	err := e.RunUntil(func() bool { return false }, 1000, 10)
	var de *ErrDeadlock
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if de.LastProgress != 7 {
		t.Errorf("LastProgress = %d, want 7 (progress stopped after cycle 7)", de.LastProgress)
	}
	if de.Cycle != de.LastProgress+10 {
		t.Errorf("Cycle = %d, want last progress + watchdog window (%d)", de.Cycle, de.LastProgress+10)
	}
	if de.Window != 10 {
		t.Errorf("Window = %d, want 10", de.Window)
	}
	if de.Detail != "router 3 vc 1: 2 pkts blocked" {
		t.Errorf("Detail = %q, want provider snapshot", de.Detail)
	}
	if detailCalls != 1 {
		t.Errorf("DeadlockDetail called %d times, want once (failure path only)", detailCalls)
	}
	msg := de.Error()
	for _, want := range []string{"last progress at cycle 7", "router 3 vc 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestPipeLatency(t *testing.T) {
	p := NewPipe[int](3)
	p.Send(10, 42)
	for now := uint64(10); now < 13; now++ {
		if _, ok := p.Poll(now); ok {
			t.Fatalf("item visible at cycle %d, latency 3 sent at 10", now)
		}
	}
	v, ok := p.Poll(13)
	if !ok || v != 42 {
		t.Fatalf("Poll(13) = %v, %v; want 42, true", v, ok)
	}
	if !p.Empty() {
		t.Error("pipe should be empty after poll")
	}
}

func TestPipeZeroLatencyClamped(t *testing.T) {
	p := NewPipe[int](0)
	if p.Latency() != 1 {
		t.Fatalf("latency = %d, want clamped to 1", p.Latency())
	}
	p.Send(0, 1)
	if _, ok := p.Poll(0); ok {
		t.Fatal("zero-latency delivery would break tick-order independence")
	}
	if _, ok := p.Poll(1); !ok {
		t.Fatal("item should arrive at cycle 1")
	}
}

func TestPipeFIFOOrder(t *testing.T) {
	p := NewPipe[int](1)
	for i := 0; i < 100; i++ {
		p.Send(uint64(i), i)
	}
	for i := 0; i < 100; i++ {
		v, ok := p.Poll(1000)
		if !ok || v != i {
			t.Fatalf("Poll #%d = %v, %v; want %d", i, v, ok, i)
		}
	}
}

func TestPipeCompaction(t *testing.T) {
	p := NewPipe[int](1)
	// Interleave sends and polls to force the head-compaction path.
	sent, got := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			p.Send(uint64(round), sent)
			sent++
		}
		for i := 0; i < 9; i++ {
			v, ok := p.Poll(uint64(round) + 1)
			if !ok || v != got {
				t.Fatalf("round %d: Poll = %v, %v; want %d", round, v, ok, got)
			}
			got++
		}
	}
	for {
		v, ok := p.Poll(10_000)
		if !ok {
			break
		}
		if v != got {
			t.Fatalf("drain: got %d, want %d", v, got)
		}
		got++
	}
	if got != sent {
		t.Fatalf("drained %d items, sent %d", got, sent)
	}
}

func TestPipeSendAt(t *testing.T) {
	p := NewPipe[string](1)
	p.SendAt(7, "late")
	if _, ok := p.Poll(6); ok {
		t.Fatal("SendAt item visible early")
	}
	if v, ok := p.Poll(7); !ok || v != "late" {
		t.Fatalf("Poll(7) = %q, %v", v, ok)
	}
}

func TestNewRNGDeterministicAndIndependent(t *testing.T) {
	a1 := NewRNG(1, "router-0")
	a2 := NewRNG(1, "router-0")
	b := NewRNG(1, "router-1")
	same, diff := 0, 0
	for i := 0; i < 64; i++ {
		x, y, z := a1.Uint64(), a2.Uint64(), b.Uint64()
		if x == y {
			same++
		}
		if x != z {
			diff++
		}
	}
	if same != 64 {
		t.Errorf("same-name streams diverged: %d/64 equal", same)
	}
	if diff < 60 {
		t.Errorf("different-name streams too correlated: %d/64 differ", diff)
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	f := func(seed uint64) bool {
		s1, s2 := seed, seed
		for i := 0; i < 8; i++ {
			if SplitMix64(&s1) != SplitMix64(&s2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: pipe never delivers before latency elapses and always preserves
// send order, under random interleavings.
func TestPipeProperty(t *testing.T) {
	f := func(lat uint8, ops []uint8) bool {
		latency := uint64(lat%8) + 1
		p := NewPipe[uint64](latency)
		now := uint64(0)
		var sentAt []uint64
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // send
				p.Send(now, uint64(len(sentAt)))
				sentAt = append(sentAt, now)
			case 1: // poll
				if v, ok := p.Poll(now); ok {
					if v != uint64(next) {
						return false // order violated
					}
					if now < sentAt[v]+latency {
						return false // delivered early
					}
					next++
				}
			case 2: // advance time
				now++
			}
			// The cached head arrival agrees with the queue itself.
			if p.Empty() != (p.Len() == 0) {
				return false
			}
			if _, ok := p.Peek(now); ok != (next < len(sentAt) && sentAt[next]+latency <= now) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
