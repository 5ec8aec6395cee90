package sim

import (
	"errors"
	"math/bits"
	"testing"
)

// selfWaker ticks itself every period cycles and records each tick.
type selfWaker struct {
	e      *Engine
	id     int
	period uint64
	ticks  []uint64
}

func (s *selfWaker) Tick(now uint64) {
	s.ticks = append(s.ticks, now)
	s.e.Progress()
	s.e.Wake(s.id, now+s.period)
}

// TestActiveIdleSkip: a component waking every 10 cycles is ticked exactly on
// its wake cycles, idle cycles are jumped, and the clock still lands on the
// requested end cycle.
func TestActiveIdleSkip(t *testing.T) {
	e := NewEngineMode(ModeActive)
	s := &selfWaker{e: e, period: 10}
	s.id = e.Register(s)
	e.Run(100)
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}
	if len(s.ticks) != 10 {
		t.Fatalf("ticked %d times, want 10 (cycles 0,10,...,90)", len(s.ticks))
	}
	for i, at := range s.ticks {
		if at != uint64(i*10) {
			t.Errorf("tick %d at cycle %d, want %d", i, at, i*10)
		}
	}
}

// TestActiveOverflowWake: wakes beyond the wheel horizon go through the
// overflow heap and still fire on exactly the requested cycle.
func TestActiveOverflowWake(t *testing.T) {
	e := NewEngineMode(ModeActive)
	s := &selfWaker{e: e, period: 10 * wheelBuckets}
	s.id = e.Register(s)
	e.Run(3*10*wheelBuckets + 1)
	want := []uint64{0, 10 * wheelBuckets, 2 * 10 * wheelBuckets, 3 * 10 * wheelBuckets}
	if len(s.ticks) != len(want) {
		t.Fatalf("ticked at %v, want %v", s.ticks, want)
	}
	for i := range want {
		if s.ticks[i] != want[i] {
			t.Fatalf("ticked at %v, want %v", s.ticks, want)
		}
	}
}

// TestActiveAfterStepSeesEveryCycle pins the period-1 observer in ModeActive
// (what the retired every-cycle hook was): returning now+1 clamps every idle
// jump to one cycle, so the observer sees every clock, idle ones included.
func TestActiveAfterStepSeesEveryCycle(t *testing.T) {
	e := NewEngineMode(ModeActive)
	s := &selfWaker{e: e, period: 17}
	s.id = e.Register(s)
	var seen []uint64
	e.Observe(1, func(now uint64) uint64 { seen = append(seen, now); return now + 1 })
	e.Run(50)
	if len(seen) != 50 {
		t.Fatalf("observer saw %d clocks, want all 50", len(seen))
	}
	for i, at := range seen {
		if at != uint64(i+1) {
			t.Fatalf("observer call %d at clock %d, want %d (no cycle may be skipped)", i, at, i+1)
		}
	}
}

// stallThenSleep makes progress (and re-arms itself) for the first n cycles,
// then goes idle forever. In ModeScan, Wake is a no-op and the component is
// scanned every cycle regardless, so both modes express the same behavior.
type stallThenSleep struct {
	e  *Engine
	id int
	n  uint64
}

func (s *stallThenSleep) Tick(now uint64) {
	if now < s.n {
		s.e.Progress()
		s.e.Wake(s.id, now+1)
	}
}

// TestActiveWatchdogCycleParity: the deadlock watchdog must fire on exactly
// the same cycle in ModeActive (where the engine jumps over the idle stretch
// and must clamp the jump to the watchdog deadline) as in ModeScan.
func TestActiveWatchdogCycleParity(t *testing.T) {
	fire := func(mode Mode) *ErrDeadlock {
		e := NewEngineMode(mode)
		s := &stallThenSleep{e: e, n: 7}
		s.id = e.Register(s)
		err := e.RunUntil(func() bool { return false }, 1000, 10)
		var de *ErrDeadlock
		if !errors.As(err, &de) {
			t.Fatalf("mode %d: err = %v, want ErrDeadlock", mode, err)
		}
		return de
	}
	scan, active := fire(ModeScan), fire(ModeActive)
	if scan.Cycle != active.Cycle || scan.LastProgress != active.LastProgress {
		t.Fatalf("watchdog divergence: scan fired (cycle %d, last progress %d), active (cycle %d, last progress %d)",
			scan.Cycle, scan.LastProgress, active.Cycle, active.LastProgress)
	}
}

// TestActiveTimeoutCycleParity: the budget timeout must report the same cycle
// in both modes, including when the active engine jumps over the budget end.
func TestActiveTimeoutCycleParity(t *testing.T) {
	fire := func(mode Mode) uint64 {
		e := NewEngineMode(mode)
		s := &selfWaker{e: e, period: 64}
		s.id = e.Register(s)
		err := e.RunUntil(func() bool { return false }, 100, 0)
		var te *ErrTimeout
		if !errors.As(err, &te) {
			t.Fatalf("mode %d: err = %v, want ErrTimeout", mode, err)
		}
		return te.Cycle
	}
	if scan, active := fire(ModeScan), fire(ModeActive); scan != active {
		t.Fatalf("timeout divergence: scan at cycle %d, active at cycle %d", scan, active)
	}
}

// wakeTarget records its tick cycles; partners wake it.
type wakeTarget struct{ ticks []uint64 }

func (w *wakeTarget) Tick(now uint64) { w.ticks = append(w.ticks, now) }

// prefixWaker is a serial-prefix component that wakes its target for the
// current cycle, modeling the fault layer unblocking an adapter same-cycle.
type prefixWaker struct {
	e        *Engine
	id, tgt  int
	wakeAt   []uint64 // cycles on which to issue a same-cycle wake
	nextWake int
}

func (p *prefixWaker) Tick(now uint64) {
	if p.nextWake < len(p.wakeAt) && p.wakeAt[p.nextWake] == now {
		p.e.Wake(p.tgt, now) // same-cycle: the target must tick this cycle
		p.nextWake++
	}
	p.e.Wake(p.id, now+1)
}

// TestSerialPrefixSameCycleWake: wakes issued by a serial-prefix component
// for the current cycle take effect in the current cycle (the target has a
// higher id, in bucket words not yet scanned). This is the mechanism that
// keeps fault-layer effects (stall onsets, credit-resync restores) visible to
// adapters within the same cycle, as scan mode's registration order provides.
func TestSerialPrefixSameCycleWake(t *testing.T) {
	e := NewEngineMode(ModeActive)
	p := &prefixWaker{e: e, wakeAt: []uint64{3, 9}}
	p.id = e.Register(p)
	w := &wakeTarget{}
	p.tgt = e.Register(w)
	e.SetSerialPrefix(1)
	e.Run(12)
	// Initial registration wake at cycle 0, then the two same-cycle wakes.
	want := []uint64{0, 3, 9}
	if len(w.ticks) != len(want) {
		t.Fatalf("target ticked at %v, want %v", w.ticks, want)
	}
	for i := range want {
		if w.ticks[i] != want[i] {
			t.Fatalf("target ticked at %v, want %v", w.ticks, want)
		}
	}
}

// midStepWaker is a NON-prefix component waking a target for the current
// cycle; the engine must defer that to the next cycle (the scan of the
// current bucket cannot be mutated behind itself).
type midStepWaker struct {
	e       *Engine
	id, tgt int
	done    bool
}

func (m *midStepWaker) Tick(now uint64) {
	if !m.done {
		m.e.Wake(m.tgt, now)
		m.done = true
	}
}

func TestMidStepWakeDefersToNextCycle(t *testing.T) {
	e := NewEngineMode(ModeActive)
	m := &midStepWaker{e: e}
	m.id = e.Register(m)
	w := &wakeTarget{}
	m.tgt = e.Register(w)
	e.Run(5)
	// Registration wake at 0; the mid-step Wake(tgt, 0) defers to cycle 1.
	want := []uint64{0, 1}
	if len(w.ticks) != len(want) || w.ticks[0] != 0 || w.ticks[1] != 1 {
		t.Fatalf("target ticked at %v, want %v", w.ticks, want)
	}
}

// TestActiveStepZeroAllocs: the wake-wheel push/pop path must not allocate in
// steady state (in-horizon wakes are bitset writes; the overflow heap only
// grows capacity once).
func TestActiveStepZeroAllocs(t *testing.T) {
	e := NewEngineMode(ModeActive)
	for i := 0; i < 200; i++ {
		s := &selfWaker{e: e, period: uint64(1 + i%7)}
		s.id = e.Register(s)
	}
	e.Run(1024) // warm up wheel and heap capacity
	if avg := testing.AllocsPerRun(500, func() { e.Step() }); avg != 0 {
		t.Errorf("active Step allocates %.2f objects/cycle in steady state, want 0", avg)
	}
}

// shardCounter counts its own ticks; per-component state only, so sharded
// and serial runs must agree exactly.
type shardCounter struct {
	e      *Engine
	id     int
	period uint64
	n      uint64
}

func (s *shardCounter) Tick(now uint64) {
	s.n++
	s.e.Wake(s.id, now+s.period)
}

// shardedCounters builds n self-waking counters, split over the given number
// of shards when it is above 1, and returns how often the merge hook ran.
func shardedCounters(n, shards int) (*Engine, []*shardCounter, *int) {
	e := NewEngineMode(ModeActive)
	comps := make([]*shardCounter, n)
	for i := range comps {
		s := &shardCounter{e: e, period: uint64(1 + i%9)}
		s.id = e.Register(s)
		comps[i] = s
	}
	merged := new(int)
	if shards > 1 {
		per := len(comps) / shards
		var ranges []ShardRange
		for s := 0; s < shards; s++ {
			hi := (s + 1) * per
			if s == shards-1 {
				hi = len(comps)
			}
			ranges = append(ranges, ShardRange{Lo: s * per, Hi: hi})
		}
		e.ConfigureShards(ranges, 0, func(uint64) { *merged++ })
	}
	return e, comps, merged
}

// TestShardedTickParity: a sharded engine ticks exactly the components a
// serial engine would, on the same cycles — whether every cycle is stepped in
// parallel, none is, or the choice alternates. 64 components on 4 shards share
// one wheel word (every parallel-phase wake takes the atomic path); 200 on 3
// have boundaries at 66 and 132, so two words are shared and two are owned.
func TestShardedTickParity(t *testing.T) {
	for _, sz := range []struct{ n, shards int }{{64, 4}, {200, 3}} {
		eSerial, serial, _ := shardedCounters(sz.n, 1)
		eSerial.Run(500)
		for name, parallel := range map[string]func(now uint64) bool{
			"parallel":    func(uint64) bool { return true },
			"serial":      func(uint64) bool { return false },
			"alternating": func(now uint64) bool { return now&1 == 1 },
		} {
			eSharded, sharded, merged := shardedCounters(sz.n, sz.shards)
			eSharded.ForceParallelForTest(parallel)
			eSharded.Run(500)
			for i := range serial {
				if serial[i].n != sharded[i].n {
					t.Fatalf("%d/%d %s: component %d: serial ticked %d, sharded %d", sz.n, sz.shards, name, i, serial[i].n, sharded[i].n)
				}
			}
			if want := map[string]int{"parallel": 500, "serial": 0, "alternating": 250}[name]; *merged != want {
				t.Errorf("%d/%d %s: merge ran %d times, want %d", sz.n, sz.shards, name, *merged, want)
			}
			for b, n := range eSharded.wheel.cnt {
				want := 0
				for _, word := range eSharded.wheel.words[b] {
					want += bits.OnesCount64(word)
				}
				if int(n) != want {
					t.Fatalf("%d/%d %s: bucket %d counts %d scheduled, holds %d", sz.n, sz.shards, name, b, n, want)
				}
			}
		}
	}
}

// TestPerCycleRule: a sharded engine enters the parallel phase (and so runs
// the merge hook) exactly on the cycles that schedule at least
// parallelMinReady components; a sparser cycle is the coordinator's alone.
func TestPerCycleRule(t *testing.T) {
	// Every component is scheduled on cycles that are multiples of all the
	// periods 1..9 (every 2520th); period-1 components alone make 1/9 of n.
	for _, tc := range []struct{ n, cycles, wantMerged int }{
		{parallelMinReady - 1, 64, 0},
		{parallelMinReady, 3, 1},       // cycle 0 schedules all n; no later one does
		{9 * parallelMinReady, 64, 64}, // the period-1 ninth is dense enough by itself
	} {
		e, _, merged := shardedCounters(tc.n, 2)
		e.Run(uint64(tc.cycles))
		if *merged != tc.wantMerged {
			t.Errorf("%d components, %d cycles: %d parallel cycles, want %d", tc.n, tc.cycles, *merged, tc.wantMerged)
		}
	}
}

// TestParallelStepZeroAllocs: a parallel cycle starts its shard goroutines
// from closures built once, so it allocates nothing in steady state either.
func TestParallelStepZeroAllocs(t *testing.T) {
	e, _, merged := shardedCounters(200, 2)
	e.parMin = 0
	e.Run(1024)
	if avg := testing.AllocsPerRun(500, func() { e.Step() }); avg != 0 {
		t.Errorf("parallel Step allocates %.2f objects/cycle in steady state, want 0", avg)
	}
	if *merged < 1024 {
		t.Fatalf("only %d parallel cycles ran", *merged)
	}
}
