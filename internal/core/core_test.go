package core

import (
	"math"
	"testing"

	"anton2/internal/arbiter"
	"anton2/internal/exp"
	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/power"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

func TestRunThroughputBasics(t *testing.T) {
	for _, kind := range []arbiter.Kind{arbiter.KindRoundRobin, arbiter.KindInverseWeighted} {
		mc := machine.DefaultConfig(topo.Shape3(3, 3, 2))
		mc.Arbiter = kind
		r, err := RunThroughput(ThroughputConfig{
			Machine:        mc,
			Pattern:        traffic.Uniform{},
			WeightPatterns: []traffic.Pattern{traffic.Uniform{}},
			Batch:          64,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if r.Normalized <= 0.2 || r.Normalized > 1.05 {
			t.Errorf("%v: normalized throughput %.3f out of range", kind, r.Normalized)
		}
		if r.Fairness < 0.5 || r.Fairness > 1.0001 {
			t.Errorf("%v: fairness %.3f out of range", kind, r.Fairness)
		}
		if r.MaxUtilization > 1.01 {
			t.Errorf("%v: utilization %.3f exceeds channel capacity", kind, r.MaxUtilization)
		}
	}
}

// values runs jobs the way the product does — through exp.Run — and unwraps
// the typed results, failing the test on the first failed point.
func values[T any](t *testing.T, jobs []exp.Job) []T {
	t.Helper()
	rs := exp.Run(jobs, exp.Serial())
	if err := exp.FirstErr(rs); err != nil {
		t.Fatal(err)
	}
	out := make([]T, len(rs))
	for i, r := range rs {
		out[i] = r.Value.(T)
	}
	return out
}

func TestThroughputSweepMonotoneBatches(t *testing.T) {
	var jobs []exp.Job
	for _, b := range []int{8, 32} {
		jobs = append(jobs, ThroughputJob(ThroughputConfig{
			Machine: machine.DefaultConfig(topo.Shape3(2, 2, 2)),
			Pattern: traffic.Uniform{},
			Batch:   b,
		}))
	}
	rs := values[ThroughputResult](t, jobs)
	if len(rs) != 2 || rs[0].Batch != 8 || rs[1].Batch != 32 {
		t.Fatalf("sweep results malformed: %+v", rs)
	}
	// Larger batches amortize ramp-up: throughput should not collapse.
	if rs[1].Normalized < rs[0].Normalized*0.5 {
		t.Errorf("batch 32 throughput %.3f collapsed versus batch 8's %.3f", rs[1].Normalized, rs[0].Normalized)
	}
}

// TestBlendWeightedBeatsRoundRobin is the Figure 10 headline at reduced
// scale: for pure tornado traffic, weighted arbitration with matching
// weights outperforms round-robin.
func TestBlendWeightedBeatsRoundRobin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second saturation run")
	}
	mc := machine.DefaultConfig(topo.Shape3(8, 4, 2))
	run := func(mode WeightMode) float64 {
		r, err := RunBlend(BlendConfig{Machine: mc, ForwardFraction: 1, Weights: mode, Batch: 128})
		if err != nil {
			t.Fatal(err)
		}
		return r.Normalized
	}
	none := run(WeightsNone)
	fwd := run(WeightsForward)
	if fwd <= none {
		t.Errorf("forward weights %.3f did not beat round-robin %.3f on tornado", fwd, none)
	}
	t.Logf("tornado: none=%.3f forward=%.3f", none, fwd)
}

func TestBlendedSaturationRateLinear(t *testing.T) {
	mc := machine.DefaultConfig(topo.Shape3(4, 4, 4))
	fl, err := PatternLoads(mc, traffic.Tornado())
	if err != nil {
		t.Fatal(err)
	}
	rl, err := PatternLoads(mc, traffic.ReverseTornado())
	if err != nil {
		t.Fatal(err)
	}
	pure := blendedSaturationRate([]float64{1, 0}, []*loadcalc.Loads{fl, rl})
	mid := blendedSaturationRate([]float64{0.5, 0.5}, []*loadcalc.Loads{fl, rl})
	// Tornado and reverse use opposite channels: a 50/50 blend halves the
	// busiest channel's load, doubling the saturation rate.
	if math.Abs(mid/pure-2) > 1e-9 {
		t.Errorf("mid-blend saturation %.4g, pure %.4g; want exactly 2x", mid, pure)
	}
}

func TestRunLatencyFigure11(t *testing.T) {
	cfg := DefaultLatencyConfig(topo.Shape3(4, 4, 4))
	cfg.PingPongs = 4
	cfg.PairsPerHop = 3
	res, err := RunLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 4 {
		t.Fatalf("only %d hop points measured", len(res.Points))
	}
	// Latency must increase with hops.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].MeanNS <= res.Points[i-1].MeanNS {
			t.Errorf("latency not increasing: %v", res.Points)
			break
		}
	}
	// The fit should resemble the paper's: tens of ns per hop plus a
	// fixed overhead near 80 ns.
	if res.SlopeNS < 20 || res.SlopeNS > 70 {
		t.Errorf("per-hop latency %.1f ns outside the plausible band", res.SlopeNS)
	}
	if res.InterceptNS < 40 || res.InterceptNS > 140 {
		t.Errorf("fixed overhead %.1f ns outside the plausible band", res.InterceptNS)
	}
	if res.R2 < 0.95 {
		t.Errorf("latency-vs-hops fit r2 = %.3f; should be nearly linear", res.R2)
	}
	t.Logf("fit: %.1f ns + %.1f ns/hop (r2=%.4f), min %.1f ns", res.InterceptNS, res.SlopeNS, res.R2, res.MinNS)
}

func TestDecomposeMinLatency(t *testing.T) {
	cfg := DefaultLatencyConfig(topo.Shape3(4, 4, 4))
	comps := DecomposeMinLatency(cfg)
	total := TotalNS(comps)
	// The paper's minimum is 99 ns; our calibration should land nearby.
	if total < 70 || total > 140 {
		t.Errorf("decomposition total %.1f ns, want near 99 ns", total)
	}
	// Software + sync should dominate (the paper: network is only ~40%).
	var sw float64
	for _, c := range comps {
		if c.Name == "software send" || c.Name == "sync + handler dispatch" {
			sw += c.NS
		}
	}
	if sw/total < 0.3 {
		t.Errorf("software share %.0f%%; expected a large non-network fraction", 100*sw/total)
	}
}

func TestEnergyFigure13Shape(t *testing.T) {
	mc := machine.DefaultConfig(topo.Shape3(1, 1, 1))
	run := func(payload PayloadKind, num, den int) EnergyPoint {
		pt, err := RunEnergy(EnergyConfig{
			Machine: mc, RateNum: num, RateDen: den, Payload: payload, Flits: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	slowRandom := run(PayloadRandom, 1, 4)
	fastRandom := run(PayloadRandom, 9, 10)
	if slowRandom.PerFlitPJ <= fastRandom.PerFlitPJ {
		t.Errorf("per-flit energy should fall with injection rate: %.1f @0.25 vs %.1f @0.9",
			slowRandom.PerFlitPJ, fastRandom.PerFlitPJ)
	}
	zeros := run(PayloadZeros, 1, 4)
	ones := run(PayloadOnes, 1, 4)
	if zeros.PerFlitPJ >= slowRandom.PerFlitPJ {
		t.Errorf("zero payloads (%.1f pJ) should cost less than random (%.1f pJ)", zeros.PerFlitPJ, slowRandom.PerFlitPJ)
	}
	if ones.PerFlitPJ <= zeros.PerFlitPJ {
		t.Errorf("all-ones payloads (%.1f pJ) should cost more than zeros (%.1f pJ) via the n term", ones.PerFlitPJ, zeros.PerFlitPJ)
	}
}

func TestEnergyFitRecoversModel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run energy sweep")
	}
	// The full Figure 13 grid, as anton2bench fig13 expands it.
	f, _ := FamilyByName("energy")
	var jobs []exp.Job
	for _, a := range f.Full {
		jobs = append(jobs, f.Jobs(a, func(*machine.Config) {})...)
	}
	m := fitEnergyModel(values[EnergyPoint](t, jobs))
	check := func(name string, got, want, tol float64) {
		if math.Abs(got-want) > tol*want {
			t.Errorf("%s = %.3f, want %.3f +/- %.0f%%", name, got, want, tol*100)
		}
	}
	check("fixed", m.Fixed, power.PaperModel.Fixed, 0.3)
	check("per-bit-flip", m.PerBitFlip, power.PaperModel.PerBitFlip, 0.3)
	check("per-activation", m.PerActivation, power.PaperModel.PerActivation, 0.4)
	t.Logf("refit: %+v", m)
}

// TestMeasuredDecompositionMatchesAnalytic: the traced nearest-neighbor
// stage latencies must sum close to the analytic Figure 12 budget and to
// the measured minimum one-way latency.
func TestMeasuredDecompositionMatchesAnalytic(t *testing.T) {
	cfg := DefaultLatencyConfig(topo.Shape3(4, 4, 2))
	measured, err := MeasureDecomposition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analytic := DecomposeMinLatency(cfg)
	mt, at := TotalNS(measured), TotalNS(analytic)
	if mt < at*0.8 || mt > at*1.3 {
		t.Errorf("measured decomposition %.1f ns vs analytic %.1f ns", mt, at)
	}
	// The trace must show the unified-network path: endpoint, routers,
	// both adapters, torus.
	stages := map[string]bool{}
	for _, c := range measured {
		stages[c.Name] = true
		if c.NS < 0 {
			t.Errorf("negative stage latency: %+v", c)
		}
	}
	for _, want := range []string{"software send", "endpoint inject", "endpoint deliver", "sync + handler dispatch"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q: %v", want, measured)
		}
	}
	t.Logf("measured decomposition (%.1f ns total):", mt)
	for _, c := range measured {
		t.Logf("  %-26s %5.1f ns", c.Name, c.NS)
	}
}
