package anton2

// The benchmarks in this file regenerate the paper's evaluation: one
// benchmark per table and figure, reporting the figure's headline numbers
// through b.ReportMetric and printing the full rows/series under -v. The
// defaults favor runtimes of seconds to tens of seconds per figure; set
// ANTON2_BENCH_FULL=1 for larger machines and batches closer to the paper's
// 512-node measurements (minutes per figure). The sweep benchmarks fan their
// points out over the internal/exp worker pool; per-point seeds derive from
// spec hashes, so the measured values are independent of the pool size.

import (
	"fmt"
	"os"
	"testing"

	"anton2/internal/area"
	"anton2/internal/loadcalc"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/wctraffic"
)

func fullScale() bool { return os.Getenv("ANTON2_BENCH_FULL") != "" }

// benchShape is the simulated machine for the saturation experiments: one
// 8-ary dimension preserves the deep arbitration chains the paper's 8x8x8
// machine has, at tractable cost.
func benchShape() Shape {
	if fullScale() {
		return NewShape(8, 8, 4)
	}
	return NewShape(8, 4, 2)
}

func benchBatches() []int {
	if fullScale() {
		return []int{64, 256, 1024}
	}
	return []int{64, 256}
}

// BenchmarkFig4WorstCase reproduces the Section 2.4 search: the optimized
// direction order limits the worst-case mesh-channel load to 2 torus
// channels (Figure 4); disabling the skip-channel policy raises it to 3.
func BenchmarkFig4WorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := WorstCaseSearch()
		best := results[0].WorstLoad
		var defaultLoad float64
		for _, r := range results {
			if r.WorstLoad < best {
				best = r.WorstLoad
			}
			if r.Order == topo.DefaultDirOrder {
				defaultLoad = r.WorstLoad
			}
		}
		_, throughOnly := wctraffic.Best(topo.DefaultChip(), wctraffic.Policy{Through: true})
		b.ReportMetric(best, "worst-load-best")
		b.ReportMetric(defaultLoad, "worst-load-default-order")
		b.ReportMetric(throughOnly, "worst-load-through-only")
		if i == 0 {
			b.Logf("paper: best order worst-case load = 2 torus channels")
			b.Logf("measured: best=%.1f default-order=%.1f through-only-skips=%.1f", best, defaultLoad, throughOnly)
		}
	}
}

// BenchmarkFig9Throughput measures batch throughput beyond saturation for
// 2-hop neighbor and uniform traffic under round-robin and inverse-weighted
// arbitration (Figure 9). Weights come from uniform-pattern loads for all
// measured patterns, as in the paper.
func BenchmarkFig9Throughput(b *testing.B) {
	patterns := []Pattern{NHop{N: 2}, Uniform{}}
	for _, pat := range patterns {
		for _, arb := range []struct {
			name string
			kind byte
		}{{"rr", 0}, {"iw", 1}} {
			b.Run(fmt.Sprintf("%s/%s", pat.Name(), arb.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mc := DefaultConfig(benchShape())
					if arb.kind == 1 {
						mc.Arbiter = InverseWeightedArbiters
					}
					rs, err := ThroughputSweepOpts(ThroughputConfig{
						Machine:        mc,
						Pattern:        pat,
						WeightPatterns: []Pattern{Uniform{}},
					}, benchBatches(), ParallelSweep(0))
					if err != nil {
						b.Fatal(err)
					}
					last := rs[len(rs)-1]
					b.ReportMetric(last.Normalized, "norm-throughput")
					b.ReportMetric(last.MaxUtilization, "max-torus-util")
					b.ReportMetric(last.Fairness, "jain-fairness")
					if i == 0 {
						for _, r := range rs {
							b.Logf("%s/%s batch=%d: norm=%.3f maxUtil=%.3f fairness=%.4f cycles=%d",
								pat.Name(), arb.name, r.Batch, r.Normalized, r.MaxUtilization, r.Fairness, r.Cycles)
						}
					}
				}
			})
		}
	}
}

// BenchmarkFig10Blend measures tornado/reverse-tornado blending under the
// four weight configurations of Figure 10.
func BenchmarkFig10Blend(b *testing.B) {
	fractions := []float64{0, 0.5, 1}
	batch := 128
	if fullScale() {
		fractions = []float64{0, 0.25, 0.5, 0.75, 1}
		batch = 512
	}
	for _, mode := range []WeightMode{WeightsNone, WeightsForward, WeightsReverse, WeightsBoth} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := BlendSweepOpts(BlendConfig{
					Machine: DefaultConfig(benchShape()),
					Weights: mode,
					Batch:   batch,
				}, fractions, ParallelSweep(0))
				if err != nil {
					b.Fatal(err)
				}
				min := rs[0].Normalized
				for _, r := range rs {
					if r.Normalized < min {
						min = r.Normalized
					}
					if i == 0 {
						b.Logf("%v f=%.2f: norm=%.3f cycles=%d", mode, r.ForwardFraction, r.Normalized, r.Cycles)
					}
				}
				b.ReportMetric(min, "min-norm-throughput")
			}
		})
	}
}

// BenchmarkFig11Latency measures one-way latency versus inter-node hops and
// fits the linear model (the paper reports 80.7 ns + 39.1 ns/hop).
func BenchmarkFig11Latency(b *testing.B) {
	shape := NewShape(4, 4, 4)
	if fullScale() {
		shape = NewShape(8, 8, 8)
	}
	for i := 0; i < b.N; i++ {
		res, err := RunLatency(DefaultLatencyConfig(shape))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SlopeNS, "ns-per-hop")
		b.ReportMetric(res.InterceptNS, "fixed-ns")
		b.ReportMetric(res.MinNS, "min-one-way-ns")
		if i == 0 {
			b.Logf("paper: 80.7 ns + 39.1 ns/hop, min 99 ns")
			b.Logf("measured: %.1f ns + %.1f ns/hop (r2=%.4f), min %.1f ns",
				res.InterceptNS, res.SlopeNS, res.R2, res.MinNS)
			for _, p := range res.Points {
				b.Logf("  hops=%d latency=%.1f ns (%d pairs)", p.Hops, p.MeanNS, p.Pairs)
			}
		}
	}
}

// BenchmarkFig12Decomposition derives the minimum-latency budget.
func BenchmarkFig12Decomposition(b *testing.B) {
	cfg := DefaultLatencyConfig(NewShape(4, 4, 4))
	for i := 0; i < b.N; i++ {
		comps := DecomposeMinLatency(cfg)
		var total, network float64
		for _, c := range comps {
			total += c.NS
			if c.Name != "software send" && c.Name != "sync + handler dispatch" {
				network += c.NS
			}
		}
		b.ReportMetric(total, "min-latency-ns")
		b.ReportMetric(100*network/total, "network-pct")
		if i == 0 {
			b.Logf("paper: 99 ns minimum, network ~40%%")
			for _, c := range comps {
				b.Logf("  %-28s %5.1f ns", c.Name, c.NS)
			}
			b.Logf("  total %.1f ns (network %.0f%%)", total, 100*network/total)
		}
	}
}

// BenchmarkFig13Energy runs the two-route energy subtraction across
// injection rates for the three payload patterns and refits the model.
func BenchmarkFig13Energy(b *testing.B) {
	flits := 1200
	rates := [][2]int{{1, 8}, {1, 2}, {3, 4}, {1, 1}}
	mc := DefaultConfig(NewShape(1, 1, 1))
	for i := 0; i < b.N; i++ {
		var all []EnergyPoint
		for _, payload := range []PayloadKind{PayloadZeros, PayloadOnes, PayloadRandom} {
			pts, err := EnergySweepOpts(mc, PaperEnergyModel, payload, rates, flits, ParallelSweep(0))
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, pts...)
			if i == 0 {
				for _, p := range pts {
					b.Logf("%s r=%.3f: %.1f pJ/flit (h=%.1f n=%.1f a/r=%.2f)",
						payload, p.Rate, p.PerFlitPJ, p.H, p.N, p.AOverR)
				}
			}
		}
		m := FitEnergyModel(all)
		b.ReportMetric(m.Fixed, "fit-fixed-pJ")
		b.ReportMetric(m.PerBitFlip, "fit-per-flip-pJ")
		b.ReportMetric(m.PerActivation, "fit-per-act-pJ")
		if i == 0 {
			b.Logf("paper model: E = 42.7 + 0.837h + (34.4 + 0.250n)(a/r) pJ")
			b.Logf("refit:       E = %.1f + %.3fh + (%.1f + %.3fn)(a/r) pJ",
				m.Fixed, m.PerBitFlip, m.PerActivation, m.PerActSetBit)
		}
	}
}

// BenchmarkTable1Area evaluates the component-area model.
func BenchmarkTable1Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1 := AreaBreakdown().Table1()
		b.ReportMetric(t1[area.Router], "router-pct-die")
		b.ReportMetric(t1[area.EndpointAdapter], "endpoint-pct-die")
		b.ReportMetric(t1[area.ChannelAdapter], "channel-pct-die")
		if i == 0 {
			b.Logf("paper:    router 3.4%%, endpoint 1.1%%, channel 4.7%%")
			b.Logf("measured: router %.1f%%, endpoint %.1f%%, channel %.1f%%",
				t1[area.Router], t1[area.EndpointAdapter], t1[area.ChannelAdapter])
		}
	}
}

// BenchmarkTable2Area evaluates the category breakdown of network area.
func BenchmarkTable2Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, total := AreaBreakdown().Table2()
		b.ReportMetric(total[area.Queues], "queues-pct")
		b.ReportMetric(total[area.Arbiters], "arbiters-pct")
		if i == 0 {
			b.Logf("paper: queues 46.6%%, reduction 9.6%%, link 8.9%%, config 8.6%%, debug 7.8%%, misc 7.3%%, multicast 5.7%%, arbiters 5.4%%")
			for k := area.Category(0); k < area.NumCategories; k++ {
				b.Logf("  %-14s %5.1f%%", k, total[k])
			}
		}
	}
}

// BenchmarkFig3Multicast measures the torus-hop savings of multicast for
// the Figure 3 style neighborhood broadcast.
func BenchmarkFig3Multicast(b *testing.B) {
	shape := NewShape(8, 8, 8)
	root := NodeCoord{X: 4, Y: 4, Z: 4}
	var dests []NodeEp
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			if dx == 0 && dy == 0 {
				continue
			}
			c := shape.Wrap(NodeCoord{X: root.X + dx, Y: root.Y + dy, Z: root.Z})
			dests = append(dests, NodeEp{Node: shape.NodeID(c), Ep: 0})
		}
	}
	for i := 0; i < b.N; i++ {
		saved := MulticastSavings(shape, root, dests, topo.AllDimOrders[0])
		tree := MulticastTree(shape, root, dests, topo.AllDimOrders[0])
		b.ReportMetric(float64(saved), "hops-saved")
		b.ReportMetric(float64(tree.TorusHops()), "tree-hops")
		if i == 0 {
			b.Logf("paper example: multicast saves 12 torus hops vs unicast")
			b.Logf("measured: unicast %d hops, tree %d hops, saved %d",
				tree.TorusHops()+saved, tree.TorusHops(), saved)
		}
	}
}

// BenchmarkDeadlockCheck verifies the Section 2.5 VC scheme's acyclicity.
func BenchmarkDeadlockCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := VerifyDeadlockFree(NewShape(4, 4, 4)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVCScheme quantifies the area cost of the baseline 2n-VC
// scheme relative to the Anton scheme (Section 2.5's motivation).
func BenchmarkAblationVCScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		anton := area.Compute(area.Default())
		cfg := area.Default()
		cfg.Scheme = route.BaselineScheme{}
		baseline := area.Compute(cfg)
		growth := baseline.NetworkTotal()/anton.NetworkTotal() - 1
		b.ReportMetric(100*growth, "network-area-growth-pct")
		if i == 0 {
			b.Logf("baseline 2n-VC scheme costs %.1f%% more network area (T-group VCs 6 vs 4 per class)", 100*growth)
		}
	}
}

// BenchmarkAblationDirectionOrder compares worst-case loads across on-chip
// routing algorithm families.
func BenchmarkAblationDirectionOrder(b *testing.B) {
	chip := topo.DefaultChip()
	for i := 0; i < b.N; i++ {
		best := wctraffic.Evaluate(chip, topo.DefaultDirOrder, wctraffic.DefaultPolicy)
		paper := wctraffic.Evaluate(chip, topo.PaperDirOrder, wctraffic.DefaultPolicy)
		b.ReportMetric(best.WorstLoad, "default-order-load")
		b.ReportMetric(paper.WorstLoad, "paper-order-load")
		if i == 0 {
			b.Logf("this layout: %v -> %.1f; paper's published order %v -> %.1f (layout-dependent; see DESIGN.md)",
				topo.DefaultDirOrder, best.WorstLoad, topo.PaperDirOrder, paper.WorstLoad)
		}
	}
}

// BenchmarkAblationSkipChannels compares zero-load X-through latency with
// and without skip channels by simulating a 3-hop X route.
func BenchmarkAblationSkipChannels(b *testing.B) {
	run := func(useSkip bool) float64 {
		cfg := DefaultLatencyConfig(NewShape(8, 2, 2))
		cfg.Machine.UseSkip = useSkip
		cfg.Machine.ExitSkip = useSkip
		cfg.PairsPerHop = 2
		cfg.PingPongs = 4
		cfg.MaxHops = 4
		res, err := RunLatency(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.SlopeNS
	}
	for i := 0; i < b.N; i++ {
		withSkip := run(true)
		withoutSkip := run(false)
		b.ReportMetric(withSkip, "ns-per-hop-skip")
		b.ReportMetric(withoutSkip, "ns-per-hop-noskip")
		if i == 0 {
			b.Logf("per-hop latency: with skips %.1f ns, without %.1f ns", withSkip, withoutSkip)
		}
	}
}

// BenchmarkUtilizationClaim checks the ~90%% effective-bandwidth claim: max
// torus utilization under sustained uniform load with weighted arbiters.
func BenchmarkUtilizationClaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mc := DefaultConfig(benchShape())
		mc.Arbiter = InverseWeightedArbiters
		r, err := RunThroughput(ThroughputConfig{
			Machine:        mc,
			Pattern:        traffic.Uniform{},
			WeightPatterns: []Pattern{Uniform{}},
			Batch:          512,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MaxUtilization, "max-torus-util")
		if i == 0 {
			b.Logf("paper: ~90%% utilization of effective channel bandwidth; measured max %.1f%%", 100*r.MaxUtilization)
		}
	}
}

// BenchmarkAblationSlices quantifies channel slicing with per-packet slice
// randomization: pinning traffic to one slice doubles the busiest channel's
// load and halves the saturation rate.
func BenchmarkAblationSlices(b *testing.B) {
	m := topo.MustMachine(NewShape(4, 4, 4))
	cfg := route.NewConfig(m)
	flows := traffic.Uniform{}.Flows(m)
	for i := 0; i < b.N; i++ {
		balanced := loadcalc.Compute(cfg, m.Chip.CoreEndpoints(), flows, route.ClassRequest)
		pinned := loadcalc.ComputeFixedSlice(cfg, m.Chip.CoreEndpoints(), flows, route.ClassRequest, 0)
		b.ReportMetric(balanced.SaturationRate(), "sat-rate-randomized")
		b.ReportMetric(pinned.SaturationRate(), "sat-rate-pinned")
		if i == 0 {
			b.Logf("slice randomization doubles saturation rate: %.4f vs %.4f pkts/cycle/core",
				balanced.SaturationRate(), pinned.SaturationRate())
		}
	}
}
