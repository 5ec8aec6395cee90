package check_test

// Property and metamorphic tests of the simulator's routing and measurement
// layers: torus translation symmetry of routes, direction-reflection
// symmetry of analytic loads, bit-identical serial vs parallel sweeps (and
// checked vs unchecked runs), and analytic-vs-simulated channel-load
// agreement.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"anton2/internal/core"
	"anton2/internal/exp"
	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/power"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

func addmod(a, b, k int) int { return ((a+b)%k + k) % k }

func translate(s topo.TorusShape, n int, t topo.NodeCoord) int {
	c := s.Coord(n)
	return s.NodeID(topo.NodeCoord{
		X: addmod(c.X, t.X, s.K[0]),
		Y: addmod(c.Y, t.Y, s.K[1]),
		Z: addmod(c.Z, t.Z, s.K[2]),
	})
}

// TestWalkTranslationSymmetry: a torus is vertex-transitive, so translating
// source and destination by the same offset must translate the route with
// it — identical length, identical on-chip channel sequence, identical
// torus adapter sequence, with every hop's node shifted by the offset. (VC
// assignments are exempt: dateline crossings move under translation.)
func TestWalkTranslationSymmetry(t *testing.T) {
	shape := topo.Shape3(4, 3, 2)
	tm := topo.MustMachine(shape)
	cfg := route.NewConfig(tm)
	rng := rand.New(rand.NewSource(23))

	for trial := 0; trial < 60; trial++ {
		src := topo.NodeEp{Node: rng.Intn(tm.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
		dst := topo.NodeEp{Node: rng.Intn(tm.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
		off := topo.NodeCoord{X: rng.Intn(shape.K[0]), Y: rng.Intn(shape.K[1]), Z: rng.Intn(shape.K[2])}
		c := route.RandomChoices(rng)
		cls := route.Class(rng.Intn(int(route.NumClasses)))

		base := route.Walk(cfg, src, dst, c.Order, c.Slice, c.Ties, cls)
		src2 := topo.NodeEp{Node: translate(shape, src.Node, off), Ep: src.Ep}
		dst2 := topo.NodeEp{Node: translate(shape, dst.Node, off), Ep: dst.Ep}
		moved := route.Walk(cfg, src2, dst2, c.Order, c.Slice, c.Ties, cls)

		if len(base) != len(moved) {
			t.Fatalf("trial %d: route length %d -> %d under translation %v", trial, len(base), len(moved), off)
		}
		for i := range base {
			bt, mt := tm.IsTorusChan(base[i].Chan), tm.IsTorusChan(moved[i].Chan)
			if bt != mt {
				t.Fatalf("trial %d hop %d: torus/mesh classification changed under translation", trial, i)
			}
			if bt {
				bn, bad := tm.TorusChanOf(base[i].Chan)
				mn, mad := tm.TorusChanOf(moved[i].Chan)
				if bad != mad || mn != translate(shape, bn, off) {
					t.Fatalf("trial %d hop %d: torus hop (n%d,%v) -> (n%d,%v), want node translated by %v",
						trial, i, bn, bad, mn, mad, off)
				}
			} else {
				bn, bch := tm.IntraChanOf(base[i].Chan)
				mn, mch := tm.IntraChanOf(moved[i].Chan)
				if bch.ID != mch.ID || mn != translate(shape, bn, off) {
					t.Fatalf("trial %d hop %d: mesh hop (n%d,%s) -> (n%d,%s), want same chip channel, node translated",
						trial, i, bn, bch.Name, mn, mch.Name)
				}
			}
		}
	}
}

// TestUniformLoadDirectionSymmetry: uniform traffic on a symmetric torus is
// invariant under reflecting any dimension and under swapping slices, so
// the analytic per-adapter loads must be equal across direction signs and
// slices.
func TestUniformLoadDirectionSymmetry(t *testing.T) {
	tm := topo.MustMachine(topo.Shape3(4, 4, 4))
	cfg := route.NewConfig(tm)
	l := loadcalc.Compute(cfg, tm.Chip.CoreEndpoints(), traffic.Uniform{}.Flows(tm), route.ClassRequest)

	for d := topo.Dim(0); d < topo.NumDims; d++ {
		for s := 0; s < topo.NumSlices; s++ {
			pos := l.Torus[topo.AdapterID{Dir: topo.Direction(2 * d), Slice: s}.Index()]
			neg := l.Torus[topo.AdapterID{Dir: topo.Direction(2*d + 1), Slice: s}.Index()]
			if math.Abs(pos-neg) > 1e-9*math.Max(pos, 1) {
				t.Errorf("dim %v slice %d: +dir load %.9f != -dir load %.9f", d, s, pos, neg)
			}
		}
		s0 := l.Torus[topo.AdapterID{Dir: topo.Direction(2 * d), Slice: 0}.Index()]
		s1 := l.Torus[topo.AdapterID{Dir: topo.Direction(2 * d), Slice: 1}.Index()]
		if math.Abs(s0-s1) > 1e-9*math.Max(s0, 1) {
			t.Errorf("dim %v: slice 0 load %.9f != slice 1 load %.9f", d, s0, s1)
		}
	}
}

// TestTornadoReflectionSymmetry: reverse tornado is tornado with every
// direction flipped, so its analytic load on each adapter must equal
// tornado's load on the opposite-direction adapter.
func TestTornadoReflectionSymmetry(t *testing.T) {
	tm := topo.MustMachine(topo.Shape3(4, 4, 4))
	cfg := route.NewConfig(tm)
	cores := tm.Chip.CoreEndpoints()
	fwd := loadcalc.Compute(cfg, cores, traffic.Tornado().Flows(tm), route.ClassRequest)
	rev := loadcalc.Compute(cfg, cores, traffic.ReverseTornado().Flows(tm), route.ClassRequest)

	for ai := 0; ai < topo.NumChannelAdapters; ai++ {
		ad := topo.AdapterByIndex(ai)
		mirror := topo.AdapterID{Dir: ad.Dir.Opposite(), Slice: ad.Slice}.Index()
		if math.Abs(rev.Torus[mirror]-fwd.Torus[ai]) > 1e-9*math.Max(fwd.Torus[ai], 1) {
			t.Errorf("adapter %v: tornado load %.9f, reverse on mirror %.9f",
				ad, fwd.Torus[ai], rev.Torus[mirror])
		}
	}
	if math.Abs(fwd.MaxTorusLoad()-rev.MaxTorusLoad()) > 1e-9 {
		t.Errorf("tornado max load %.9f != reverse %.9f", fwd.MaxTorusLoad(), rev.MaxTorusLoad())
	}
}

// TestSerialParallelBitIdentical: per-point seeds are derived from the
// experiment specs, so a parallel sweep must produce results bit-identical
// to the serial sweep for every experiment family.
func TestSerialParallelBitIdentical(t *testing.T) {
	// identical runs a grid serially and on a worker pool, as the product
	// does (exp.Run), and requires every point to succeed with equal values.
	identical := func(t *testing.T, workers int, jobs []exp.Job) {
		serial := exp.Run(jobs, exp.Serial())
		par := exp.Run(jobs, exp.Parallel(workers))
		for i := range serial {
			if serial[i].Err != nil || par[i].Err != nil {
				t.Fatalf("point %d failed: %v / %v", i, serial[i].Err, par[i].Err)
			}
			if !reflect.DeepEqual(serial[i].Value, par[i].Value) {
				t.Errorf("point %d: serial %+v\nparallel %+v", i, serial[i].Value, par[i].Value)
			}
		}
	}

	t.Run("throughput", func(t *testing.T) {
		cfg := core.ThroughputConfig{
			Machine: machine.DefaultConfig(topo.Shape3(2, 2, 2)),
			Pattern: traffic.Uniform{},
		}
		cfg.Machine.Check = true
		var jobs []exp.Job
		for _, cfg.Batch = range []int{4, 8, 16} {
			jobs = append(jobs, core.ThroughputJob(cfg))
		}
		identical(t, 4, jobs)
	})

	t.Run("blend", func(t *testing.T) {
		// Tornado shifts K/2-1 per dimension, so radix 2 degenerates to
		// self-addressed traffic; use radix 4 in X to keep the blend live.
		cfg := core.BlendConfig{
			Machine: machine.DefaultConfig(topo.Shape3(4, 2, 2)),
			Weights: core.WeightsBoth,
			Batch:   4,
		}
		cfg.Machine.Check = true
		var jobs []exp.Job
		for _, cfg.ForwardFraction = range []float64{0, 0.5, 1} {
			jobs = append(jobs, core.BlendJob(cfg))
		}
		identical(t, 3, jobs)
	})

	t.Run("latency", func(t *testing.T) {
		var jobs []exp.Job
		for _, shape := range []topo.TorusShape{topo.Shape3(2, 2, 2), topo.Shape3(3, 2, 2)} {
			cfg := core.DefaultLatencyConfig(shape)
			cfg.Machine.Check = true
			cfg.PingPongs, cfg.PairsPerHop = 2, 2
			jobs = append(jobs, core.LatencyJob(cfg))
		}
		identical(t, 2, jobs)
	})

	t.Run("energy", func(t *testing.T) {
		cfg := core.EnergyConfig{
			Machine: machine.DefaultConfig(topo.Shape3(1, 1, 1)),
			Model:   power.PaperModel,
			Payload: core.PayloadRandom,
			Flits:   300,
		}
		cfg.Machine.Check = true
		var jobs []exp.Job
		for _, r := range [][2]int{{1, 4}, {1, 2}} {
			cfg.RateNum, cfg.RateDen = r[0], r[1]
			jobs = append(jobs, core.EnergyJob(cfg))
		}
		identical(t, 2, jobs)
	})
}

// TestCheckingDoesNotPerturbSimulation: attaching the invariant suite is
// observation-only — a checked run and an unchecked run of identical
// traffic finish on the same cycle with identical per-channel flit counts.
func TestCheckingDoesNotPerturbSimulation(t *testing.T) {
	run := func(checked bool) (uint64, uint64) {
		cfg := machine.DefaultConfig(topo.Shape3(3, 2, 2))
		cfg.Check = checked
		m := machine.MustNew(cfg)
		rng := rand.New(rand.NewSource(31))
		total := uint64(0)
		for n := 0; n < m.Topo.NumNodes(); n++ {
			for _, ep := range m.Topo.Chip.CoreEndpoints() {
				src := topo.NodeEp{Node: n, Ep: ep}
				for i := 0; i < 6; i++ {
					dst := traffic.Uniform{}.Dest(m.Topo, src, rng)
					m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
					total++
				}
			}
		}
		end, err := m.RunUntilDelivered(total, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for id := 0; id < m.Topo.NumChannels(); id++ {
			sum += m.Chan(id).Sent * uint64(id+1)
		}
		if checked {
			if err := m.FinishChecks(); err != nil {
				t.Fatal(err)
			}
		}
		return end, sum
	}
	e0, s0 := run(false)
	e1, s1 := run(true)
	if e0 != e1 || s0 != s1 {
		t.Errorf("checking perturbed the run: unchecked (%d,%d) vs checked (%d,%d)", e0, s0, e1, s1)
	}
}

// TestLoadcalcMatchesSimulatedChannelLoad: the analytic route enumeration
// and the cycle simulator must agree on where traffic lands — per-adapter
// torus flit totals from a uniform random burst match the loadcalc
// prediction within sampling tolerance, under full invariant checking.
func TestLoadcalcMatchesSimulatedChannelLoad(t *testing.T) {
	shape := topo.Shape3(3, 3, 2)
	cfg := machine.DefaultConfig(shape)
	cfg.Check = true
	m := machine.MustNew(cfg)
	tm := m.Topo
	cores := tm.Chip.CoreEndpoints()
	l := loadcalc.Compute(m.RouteConfig(), cores, traffic.Uniform{}.Flows(tm), route.ClassRequest)

	const batch = 48
	rng := rand.New(rand.NewSource(41))
	total := uint64(0)
	for n := 0; n < tm.NumNodes(); n++ {
		for _, ep := range cores {
			src := topo.NodeEp{Node: n, Ep: ep}
			for i := 0; i < batch; i++ {
				dst := traffic.Uniform{}.Dest(tm, src, rng)
				m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
				total++
			}
		}
	}
	if _, err := m.RunUntilDelivered(total, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.FinishChecks(); err != nil {
		t.Fatal(err)
	}

	var simTorus float64
	for ai := 0; ai < topo.NumChannelAdapters; ai++ {
		ad := topo.AdapterByIndex(ai)
		var sent uint64
		for n := 0; n < tm.NumNodes(); n++ {
			sent += m.Chan(tm.TorusChanID(n, ad.Dir, ad.Slice)).Sent
		}
		want := l.Torus[ai] * float64(tm.NumNodes()) * batch
		simTorus += float64(sent)
		if want == 0 {
			if sent != 0 {
				t.Errorf("adapter %v: %d flits on an analytically unloaded adapter", ad, sent)
			}
			continue
		}
		if rel := math.Abs(float64(sent)-want) / want; rel > 0.08 {
			t.Errorf("adapter %v: simulated %d flits vs analytic %.0f (%.1f%% off)", ad, sent, want, 100*rel)
		}
	}
	// Mean torus hops per packet, aggregate check at tighter tolerance.
	simHops := simTorus / float64(total)
	if rel := math.Abs(simHops-l.MeanTorusHops) / l.MeanTorusHops; rel > 0.03 {
		t.Errorf("mean torus hops: simulated %.3f vs analytic %.3f (%.1f%% off)", simHops, l.MeanTorusHops, 100*rel)
	}
}
