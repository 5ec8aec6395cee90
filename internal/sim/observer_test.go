package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// pulse does one unit of work on every multiple of its period. Its state is
// a function of the clock alone, so scan, active and sharded engines agree on
// it at every between-steps instant.
type pulse struct {
	e      *Engine
	id     int
	period uint64
	work   uint64
}

func (p *pulse) Tick(now uint64) {
	if now%p.period == 0 {
		p.work++
	}
	p.e.Wake(p.id, now+p.period-now%p.period)
}

// observedEngine builds 48 sparse pulses (idle stretches of up to 4 cycles,
// so the active engines do jump) under the given mode and shard count.
func observedEngine(mode Mode, shards int) (*Engine, []*pulse) {
	e := NewEngineMode(mode)
	comps := make([]*pulse, 48)
	for i := range comps {
		comps[i] = &pulse{e: e, period: uint64(5 + 5*(i%4))}
		comps[i].id = e.Register(comps[i])
	}
	if shards > 1 {
		per := len(comps) / shards
		var ranges []ShardRange
		for s := 0; s < shards; s++ {
			ranges = append(ranges, ShardRange{Lo: s * per, Hi: (s + 1) * per})
		}
		e.ConfigureShards(ranges, 0, nil)
		e.parMin = 0 // 48 components: below the per-cycle rule
	}
	return e, comps
}

// TestObserverDeadlinesAcrossEngines: the three cadences the machine layer
// installs — the invariant suite's (clock 1, then every 64), telemetry's
// growing window, and the checkpoint writer's multiples — fire at identical
// clocks, seeing identical component state, in scan, active and sharded
// engines, whether the clock advances by Run, by manual Step, or by RunUntil.
func TestObserverDeadlinesAcrossEngines(t *testing.T) {
	type firing struct {
		at   string // "<observer>@<clock>"
		work uint64 // component state the observer saw
	}
	run := func(mode Mode, shards int) []firing {
		e, comps := observedEngine(mode, shards)
		var log []firing
		note := func(name string, now uint64) {
			var work uint64
			for _, c := range comps {
				work += c.work
			}
			log = append(log, firing{fmt.Sprintf("%s@%d", name, now), work})
		}
		e.Observe(1, func(now uint64) uint64 { note("scan", now); return now + 64 })
		window := uint64(100)
		e.Observe(window, func(now uint64) uint64 {
			note("window", now)
			if now >= 4*window {
				window *= 2
			}
			return now + window
		})
		e.Observe(30, func(now uint64) uint64 { note("ckpt", now); return now + 30 - now%30 })
		e.Run(300)
		for i := 0; i < 50; i++ {
			e.Step()
		}
		if err := e.RunUntil(func() bool { return e.Now() >= 1000 }, 5000, 0); err != nil {
			t.Fatal(err)
		}
		return log
	}
	scan := run(ModeScan, 1)
	if scan[0] != (firing{"scan@1", 48}) {
		t.Fatalf("first firing = %v, want the clock-1 scan after every pulse worked once", scan[0])
	}
	fired := map[string]bool{}
	for _, f := range scan {
		fired[f.at] = true
	}
	for _, want := range []string{"scan@65", "scan@961", "window@400", "window@600", "window@800", "ckpt@330", "ckpt@990"} {
		if !fired[want] {
			t.Errorf("scan reference never fired %s: %v", want, scan)
		}
	}
	if active := run(ModeActive, 1); !reflect.DeepEqual(active, scan) {
		t.Errorf("active engine observed\n%v\nscan observed\n%v", active, scan)
	}
	if sharded := run(ModeActive, 4); !reflect.DeepEqual(sharded, scan) {
		t.Errorf("sharded engine observed\n%v\nscan observed\n%v", sharded, scan)
	}
}

// TestObserverIdleJumpNeverOvershoots: with nothing scheduled the active
// engine would cross any distance in one jump; a deadline clamps the jump, a
// run that ends short of the deadline does not fire it, and one that ends
// exactly on it does.
func TestObserverIdleJumpNeverOvershoots(t *testing.T) {
	e := NewEngineMode(ModeActive)
	var seen []uint64
	e.Observe(100, func(now uint64) uint64 { seen = append(seen, now); return now + 250 })
	e.Run(90)
	if len(seen) != 0 {
		t.Fatalf("observer fired at %v before its first deadline", seen)
	}
	e.Run(10)
	if want := []uint64{100}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("after a run ending on the deadline: fired at %v, want %v", seen, want)
	}
	err := e.RunUntil(func() bool { return false }, 900, 0)
	if _, ok := err.(*ErrTimeout); !ok || e.Now() != 1000 {
		t.Fatalf("RunUntil = %v at cycle %d, want ErrTimeout at 1000", err, e.Now())
	}
	if want := []uint64{100, 350, 600, 850}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("fired at %v, want %v", seen, want)
	}
}

// TestObserverCancelsItself: returning a deadline that is not in the future
// uninstalls the observer — it never runs again and no longer clamps jumps —
// and leaves the others in place.
func TestObserverCancelsItself(t *testing.T) {
	e := NewEngineMode(ModeActive)
	var once, every []uint64
	e.Observe(10, func(now uint64) uint64 { once = append(once, now); return 0 })
	e.Observe(10, func(now uint64) uint64 { every = append(every, now); return now + 10 })
	e.Run(35)
	if want := []uint64{10}; !reflect.DeepEqual(once, want) {
		t.Errorf("self-cancelling observer fired at %v, want %v", once, want)
	}
	if want := []uint64{10, 20, 30}; !reflect.DeepEqual(every, want) {
		t.Errorf("surviving observer fired at %v, want %v", every, want)
	}
	if len(e.obs) != 1 || e.nextObs != 40 {
		t.Errorf("engine holds %d observers with next deadline %d, want 1 and 40", len(e.obs), e.nextObs)
	}
}
