package check_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"anton2/internal/check"
	"anton2/internal/core"
	"anton2/internal/machine"
	"anton2/internal/multicast"
	"anton2/internal/power"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// TestSuiteScanInterval: the suite scans at completed cycles 0, ScanInterval,
// 2*ScanInterval, ... and once more at Finish. Observed through a real
// machine's engine: a credit counter pushed over capacity before an otherwise
// idle machine runs is reported once per scan, at the cycle scanned, under
// either engine (the active one jumps the idle cycles between deadlines).
func TestSuiteScanInterval(t *testing.T) {
	for _, engine := range []string{machine.EngineScan, machine.EngineActive} {
		cfg := machine.DefaultConfig(topo.Shape3(2, 2, 2))
		cfg.Check, cfg.Engine = true, engine
		m := machine.MustNew(cfg)
		m.Chan(0).CorruptCreditsForTest(0, +10)
		m.Engine.Run(2*check.ScanInterval + 2)
		want := []uint64{0, check.ScanInterval, 2 * check.ScanInterval}
		var got []uint64
		for _, v := range m.Checks().Violations() {
			got = append(got, v.Cycle)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scans over %d cycles reported at %v, want %v", engine, m.Engine.Now(), got, want)
		}
		if err := m.FinishChecks(); err == nil || m.Checks().ViolationCount() != len(want)+1 {
			t.Errorf("%s: FinishChecks = %v with %d violations, want the final scan to add one to %d",
				engine, err, m.Checks().ViolationCount(), len(want))
		}
	}
}

// runBurst injects count random uniform packets from every core and runs to
// completion, returning the machine for inspection.
func runBurst(t *testing.T, cfg machine.Config, perCore int) *machine.Machine {
	t.Helper()
	m := machine.MustNew(cfg)
	rng := rand.New(rand.NewSource(11))
	total := uint64(0)
	for n := 0; n < m.Topo.NumNodes(); n++ {
		for _, ep := range m.Topo.Chip.CoreEndpoints() {
			src := topo.NodeEp{Node: n, Ep: ep}
			for i := 0; i < perCore; i++ {
				dst := traffic.Uniform{}.Dest(m.Topo, src, rng)
				m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
				total++
			}
		}
	}
	if _, err := m.RunUntilDelivered(total, 2_000_000); err != nil {
		t.Fatalf("burst run: %v (delivered %d/%d)", err, m.Delivered(), total)
	}
	return m
}

// TestBurstRunsClean: a standard verified run reports zero violations and a
// clean FinishChecks.
func TestBurstRunsClean(t *testing.T) {
	cfg := machine.DefaultConfig(topo.Shape3(3, 2, 2))
	cfg.Check = true
	m := runBurst(t, cfg, 8)
	if err := m.FinishChecks(); err != nil {
		t.Fatalf("FinishChecks: %v", err)
	}
	if n := m.Checks().ViolationCount(); n != 0 {
		t.Fatalf("%d violations on a healthy run: %v", n, m.Checks().Violations())
	}
}

// TestOverCreditFaultCaught plants a test-only credit-counter fault that
// pushes a channel's credit above its buffer capacity; the periodic scan
// must flag it and FinishChecks must fail.
func TestOverCreditFaultCaught(t *testing.T) {
	cfg := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	cfg.Check = true
	m := runBurst(t, cfg, 4)
	m.Chan(0).CorruptCreditsForTest(0, +10)
	err := m.FinishChecks()
	if err == nil {
		t.Fatal("FinishChecks passed despite an over-capacity credit counter")
	}
	vs := m.Checks().Violations()
	if len(vs) == 0 || vs[0].Checker != "credits" {
		t.Fatalf("want a credits violation first, got %v", vs)
	}
	if !strings.Contains(err.Error(), "above buffer capacity") {
		t.Errorf("error does not describe the fault: %v", err)
	}
}

// TestCreditLeakFaultCaught plants the opposite fault — credits lost — which
// stays within [0, BufFlits] during the run and is only detectable by the
// quiesced end-of-run accounting.
func TestCreditLeakFaultCaught(t *testing.T) {
	cfg := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	cfg.Check = true
	m := runBurst(t, cfg, 4)
	m.Chan(3).CorruptCreditsForTest(0, -2)
	err := m.FinishChecks()
	if err == nil {
		t.Fatal("FinishChecks passed despite a leaked credit")
	}
	vs := m.Checks().Violations()
	if len(vs) == 0 || vs[0].Checker != "credits" {
		t.Fatalf("want a credits violation, got %v", vs)
	}
	if !strings.Contains(err.Error(), "credit leak") {
		t.Errorf("error does not describe the leak: %v", err)
	}
}

// TestVerifiedMulticast drives repeated multicasts plus background unicast
// traffic through the full suite, exercising the exactly-once checker's
// expected-delivery ledger.
func TestVerifiedMulticast(t *testing.T) {
	shape := topo.Shape3(4, 4, 2)
	root := topo.NodeCoord{X: 1, Y: 2, Z: 0}
	dests := multicast.PlaneNeighborhood(shape, root, topo.DimX, topo.DimY, 1, 0)
	dests = append(dests, topo.NodeEp{Node: dests[0].Node, Ep: 5})
	tree := multicast.Build(shape, root, dests, topo.AllDimOrders[1], 0)

	cfg := machine.DefaultConfig(shape)
	cfg.Check = true
	cfg.Multicast = map[int]*multicast.Compiled{2: tree.Compile(shape)}
	m := machine.MustNew(cfg)

	rng := rand.New(rand.NewSource(17))
	total := uint64(0)
	for n := 0; n < m.Topo.NumNodes(); n++ {
		src := topo.NodeEp{Node: n, Ep: 0}
		for i := 0; i < 8; i++ {
			dst := traffic.Uniform{}.Dest(m.Topo, src, rng)
			m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
			total++
		}
	}
	src := topo.NodeEp{Node: shape.NodeID(root), Ep: 3}
	for i := 0; i < 4; i++ {
		total += uint64(m.InjectMulticast(src, 2, route.ClassRequest, 0))
	}
	if _, err := m.RunUntilDelivered(total, 2_000_000); err != nil {
		t.Fatalf("multicast run: %v (delivered %d/%d)", err, m.Delivered(), total)
	}
	if err := m.FinishChecks(); err != nil {
		t.Fatalf("FinishChecks: %v", err)
	}
}

// TestVerifiedSweeps8x8x8 is the acceptance benchmark: one full 8x8x8
// (paper-scale, 512 nodes) measurement per experiment family with the
// invariant suite attached. Each runner calls FinishChecks internally, so a
// nil error certifies zero violations across the whole run plus the drained
// end state.
func TestVerifiedSweeps8x8x8(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale verified sweeps take ~30s; skipped under -short")
	}
	shape := topo.Shape3(8, 8, 8)

	t.Run("throughput", func(t *testing.T) {
		mc := machine.DefaultConfig(shape)
		mc.Check = true
		r, err := core.RunThroughput(core.ThroughputConfig{
			Machine: mc,
			Pattern: traffic.Uniform{},
			Batch:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Normalized <= 0 {
			t.Errorf("verified throughput run measured %.3f", r.Normalized)
		}
	})

	t.Run("blend", func(t *testing.T) {
		mc := machine.DefaultConfig(shape)
		mc.Check = true
		r, err := core.RunBlend(core.BlendConfig{
			Machine:         mc,
			ForwardFraction: 0.5,
			Weights:         core.WeightsBoth,
			Batch:           2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Normalized <= 0 {
			t.Errorf("verified blend run measured %.3f", r.Normalized)
		}
	})

	t.Run("latency", func(t *testing.T) {
		cfg := core.DefaultLatencyConfig(shape)
		cfg.Machine.Check = true
		cfg.PingPongs = 1
		cfg.PairsPerHop = 1
		res, err := core.RunLatency(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) < 8 {
			t.Errorf("only %d hop points on the full 8x8x8 sweep", len(res.Points))
		}
	})

	t.Run("energy", func(t *testing.T) {
		mc := machine.DefaultConfig(shape)
		mc.Check = true
		pt, err := core.RunEnergy(core.EnergyConfig{
			Machine: mc, Model: power.PaperModel,
			RateNum: 1, RateDen: 2, Payload: core.PayloadRandom, Flits: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pt.PerFlitPJ <= 0 {
			t.Errorf("verified energy run measured %.1f pJ/flit", pt.PerFlitPJ)
		}
	})
}
