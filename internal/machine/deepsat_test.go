package machine_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"anton2/internal/arbiter"
	"anton2/internal/core"
	"anton2/internal/machine"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// Deep saturation is the regime fig9's batch-1024 and fig10's batch-256
// points spend their time in: every core has a deep backlog, every torus link
// is busy, and most queued heads wait on a serializer or on credit.
const (
	deepBatch  = 256  // packets each core sends
	deepWarm   = 600  // cycles stepped before timing: ramp-up into the plateau
	deepCycles = 200  // cycles stepped per benchmark op
	deepLimit  = 4000 // the plateau's end, well before the batch drains
)

// BenchmarkDeepSaturation prices a cycle of deep saturation: an 8x8x8 machine
// with inverse-weighted arbiters (weights from uniform loads) whose every core
// sends a batch of 256 uniform requests, warmed past its ramp-up and then
// stepped deepCycles cycles per op, serially. It reports simulated cycles per
// wall second and wall microseconds per cycle; the batch-256 anton2sim run it
// stands for is timed beside it in EXPERIMENTS.md "Cycle kernel". The machine
// is built and warmed once per process: the testing package's b.N=1 probe
// and the timed run step the same machine on.
//
//	go test -run '^$' -bench DeepSaturation -benchtime 5x ./internal/machine
func BenchmarkDeepSaturation(b *testing.B) {
	deepOnce.Do(func() { deepMachine, deepErr = warmDeepMachine() })
	if deepErr != nil {
		b.Fatal(deepErr)
	}
	m := deepMachine
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if m.Engine.Now()+deepCycles > deepLimit {
			b.Fatalf("ran past the plateau at cycle %d: lower -benchtime", m.Engine.Now())
		}
		m.Engine.Run(deepCycles)
	}
	wall := time.Since(start).Seconds()
	b.ReportMetric(float64(b.N*deepCycles)/wall, "cycles/s")
	b.ReportMetric(wall*1e6/float64(b.N*deepCycles), "us/cycle")
}

var (
	deepOnce    sync.Once
	deepMachine *machine.Machine
	deepErr     error
)

// warmDeepMachine builds BenchmarkDeepSaturation's machine and steps it past
// its ramp-up.
func warmDeepMachine() (*machine.Machine, error) {
	shape := topo.Shape3(8, 8, 8)
	mc := machine.DefaultConfig(shape)
	mc.Arbiter = arbiter.KindInverseWeighted
	mc.Shards = 1
	m, _, err := core.BuildMachine(mc, traffic.Uniform{})
	if err != nil {
		return nil, err
	}
	tm := m.Topo
	for n := 0; n < tm.NumNodes(); n++ {
		for _, ep := range tm.Chip.CoreEndpoints() {
			src := topo.NodeEp{Node: n, Ep: ep}
			rng := sim.NewRNG(mc.Seed, fmt.Sprintf("deep-%d-%d", n, ep))
			sent := 0
			m.Endpoint(src).Source = func() *packet.Packet {
				if sent >= deepBatch {
					return nil
				}
				sent++
				return m.MakeRandomPacket(src, traffic.Uniform{}.Dest(tm, src, rng), route.ClassRequest, 0, rng)
			}
		}
	}
	m.Engine.Run(deepWarm)
	return m, nil
}
