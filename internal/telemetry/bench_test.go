package telemetry_test

import (
	"math/rand"
	"testing"

	"anton2/internal/machine"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
)

// loadedMachine builds a 2x2x2 machine with endless uniform-random sources
// on every core endpoint and steps it to a saturated steady state, so that
// per-cycle measurements exercise the full router/adapter/endpoint hot path
// with warm pools and queues.
func loadedMachine(tb testing.TB, opts *telemetry.Options) *machine.Machine {
	tb.Helper()
	cfg := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	cfg.Telemetry = opts
	m := machine.MustNew(cfg)
	nodes := m.Topo.NumNodes()
	cores := m.Topo.Chip.CoreEndpoints()
	for n := 0; n < nodes; n++ {
		for _, ep := range cores {
			src := topo.NodeEp{Node: n, Ep: ep}
			rng := rand.New(rand.NewSource(int64(1 + n*64 + ep)))
			e := m.Endpoint(src)
			// Uniform-random destinations, drawn without the per-call
			// slice copy traffic.Uniform.Dest would make: the closure
			// must be allocation-free so the zero-alloc test below
			// measures the simulator, not the traffic generator.
			e.Source = func() *packet.Packet {
				dn := rng.Intn(nodes - 1)
				if dn >= src.Node {
					dn++
				}
				dst := topo.NodeEp{Node: dn, Ep: cores[rng.Intn(len(cores))]}
				return m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng)
			}
		}
	}
	for i := 0; i < 4096; i++ {
		m.Engine.Step()
	}
	return m
}

// TestStepTelemetryOffZeroAllocs pins the zero-cost-when-off contract at its
// sharpest point: with no collector attached, a steady-state simulation
// cycle must not allocate at all.
func TestStepTelemetryOffZeroAllocs(t *testing.T) {
	m := loadedMachine(t, nil)
	if avg := testing.AllocsPerRun(500, func() { m.Engine.Step() }); avg != 0 {
		t.Errorf("telemetry-off Engine.Step allocates %.2f objects/cycle, want 0", avg)
	}
}

func benchmarkStep(b *testing.B, opts *telemetry.Options) {
	m := loadedMachine(b, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Engine.Step()
	}
}

// BenchmarkEngineStepTelemetryOff is the baseline simulation cycle cost;
// compare with BenchmarkEngineStepTelemetryOn to price the collector.
func BenchmarkEngineStepTelemetryOff(b *testing.B) {
	benchmarkStep(b, nil)
}

// BenchmarkEngineStepTelemetryOn measures the enabled-collector overhead:
// per-cycle it is one window-boundary compare, plus channel-counter deltas
// and an occupancy scan amortized once per 1 024-cycle window.
func BenchmarkEngineStepTelemetryOn(b *testing.B) {
	benchmarkStep(b, &telemetry.Options{})
}
