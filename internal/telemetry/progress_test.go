package telemetry

import (
	"testing"

	"anton2/internal/topo"
)

// TestProgressFiresAtWindowBoundaries pins the live-progress contract used
// by anton2serve: the callback fires exactly once per closed sampling
// window, with the elapsed cycle count, and never between boundaries.
func TestProgressFiresAtWindowBoundaries(t *testing.T) {
	var ticks []uint64
	c := NewCollector(Env{
		Topo:   topo.MustMachine(topo.Shape3(2, 2, 2)),
		MaxVCs: 1,
	}, Options{
		WindowCycles: 100,
		Progress:     func(elapsed uint64) { ticks = append(ticks, elapsed) },
	})
	for now := c.Observe(0); now <= 350; { // the engine's part: call at each deadline
		now = c.Observe(now)
	}
	want := []uint64{100, 200, 300}
	if len(ticks) != len(want) {
		t.Fatalf("progress fired %d times (%v), want %v", len(ticks), ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("progress ticks = %v, want %v", ticks, want)
		}
	}
}
