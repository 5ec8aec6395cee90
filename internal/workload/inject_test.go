package workload

import (
	"testing"

	"anton2/internal/machine"
	"anton2/internal/topo"
	"anton2/internal/trace"
)

// TestRecordedEventsAreTheInjectorFeed: a capture is, event for event, what
// the phase generator hands the shared injector — event and injectionOf are
// inverses over it — so ReplayTrace, which feeds injectionOf(event) to the
// same injector, injects what the live run did by construction.
func TestRecordedEventsAreTheInjectorFeed(t *testing.T) {
	spec := Spec{HaloPackets: 3, HaloBurst: 2, Multicasts: 2, ReducePackets: 1, Timesteps: 2}.WithDefaults()
	shape := topo.Shape3(2, 2, 2)
	tm := topo.MustMachine(shape)
	cfg := machine.DefaultConfig(shape)
	cfg.Multicast = spec.Tables(tm)
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(spec.Header(shape, cfg.Seed))
	if _, err := Run(m, spec, rec, 0); err != nil {
		t.Fatal(err)
	}
	events := rec.Trace().Events

	gen := newGenerator(tm, cfg.Seed, spec)
	i := 0
	for ts := 0; ts < spec.Timesteps; ts++ {
		for idx := 0; idx < numPhases; idx++ {
			err := gen.phase(idx, func(in injection) error {
				if i >= len(events) {
					t.Fatalf("generator fed more than the %d recorded events", len(events))
				}
				ev := events[i]
				i++
				if got := in.event(ts, idx, ev.Cycle); got != ev {
					t.Fatalf("event %d: fed %+v, recorded %+v", i-1, got, ev)
				}
				if back, err := injectionOf(ev); err != nil || back != in {
					t.Fatalf("event %d: injectionOf(%+v) = %+v, %v; fed %+v", i-1, ev, back, err, in)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if i != len(events) || i == 0 {
		t.Fatalf("generator fed %d injections, capture holds %d", i, len(events))
	}
}
