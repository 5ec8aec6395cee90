package machine_test

import (
	"fmt"
	"testing"
	"time"

	"anton2/internal/core"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/workload"
)

// BenchmarkShardedOverSerial is the sharding verdict where benchmark/ cannot
// carry it: each sub-benchmark runs one unit of a benchmark/ workload through
// its core driver with Shards: 1 and with an explicit shard count, alternating
// which goes first, and reports serial_over_sharded = serial wall / sharded
// wall (above 1 the shards win). The saturated burst is where sharding pays;
// the ping-pong and the timestep are where it must cost nothing, because their
// cycles (all of the ping-pong's, all but ~60 of the timestep's 4 152) stay
// below sim.ParallelMinReady and are stepped serially.
//
//	go test -run '^$' -bench ShardedOverSerial -benchtime 3x ./internal/machine
func BenchmarkShardedOverSerial(b *testing.B) {
	big, small := topo.Shape3(8, 8, 8), topo.Shape3(4, 4, 2)
	burst := func(mc machine.Config) error {
		_, err := core.RunThroughput(core.ThroughputConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: 4})
		return err
	}
	pingpong := func(mc machine.Config) error {
		cfg := core.DefaultLatencyConfig(mc.Shape)
		cfg.Machine, cfg.PingPongs = mc, 64
		_, err := core.RunLatency(cfg)
		return err
	}
	mdstep := func(mc machine.Config) error {
		mc.Scheme = route.AntonScheme{}
		_, err := core.RunMDStepPoint(core.MDStepConfig{Machine: mc, Workload: workload.Spec{Timesteps: 4}})
		return err
	}
	for _, bc := range []struct {
		name   string
		shape  topo.TorusShape
		shards int
		unit   func(machine.Config) error
	}{
		{"sat_8x8x8", big, 2, burst},
		{"sat_8x8x8", big, 4, burst},
		{"sparse_pingpong_8x8x8", big, 2, pingpong},
		{"mdstep_4x4x2", small, 2, mdstep},
	} {
		b.Run(fmt.Sprintf("%s/shards=%d", bc.name, bc.shards), func(b *testing.B) {
			// The cold 8x8x8 route enumeration belongs to neither side.
			if _, err := core.PatternLoads(machine.DefaultConfig(bc.shape), traffic.Uniform{}); err != nil {
				b.Fatal(err)
			}
			var wall [2]time.Duration // serial, sharded
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 2; k++ {
					side := (i + k) % 2
					mc := machine.DefaultConfig(bc.shape)
					mc.Shards = []int{1, bc.shards}[side]
					start := time.Now()
					if err := bc.unit(mc); err != nil {
						b.Fatal(err)
					}
					wall[side] += time.Since(start)
				}
			}
			b.ReportMetric(wall[0].Seconds()/wall[1].Seconds(), "serial_over_sharded")
			b.ReportMetric(wall[0].Seconds()*1e3/float64(b.N), "serial_ms")
			b.ReportMetric(wall[1].Seconds()*1e3/float64(b.N), "sharded_ms")
		})
	}
}
