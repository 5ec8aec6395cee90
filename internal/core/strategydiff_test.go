package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// That every registered strategy gives every family's artifact in every mode
// is the mode lattice's (lattice_test.go); this file keeps the two
// strategy-specific behavioural tests.

// TestNilSchemeIsAnton: machine.Config.Strategy is the only default, so a nil
// Scheme and an explicit AntonScheme name the same canonical string and the
// same load table, and build machines that end a short run in the same state.
func TestNilSchemeIsAnton(t *testing.T) {
	unset := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	unset.Scheme = nil
	anton := unset
	anton.Scheme = route.AntonScheme{}

	if a, b := addMachine(exp.NewSpec("x"), unset).Canonical(), addMachine(exp.NewSpec("x"), anton).Canonical(); a != b {
		t.Errorf("addMachine canonicals differ:\n%s\n%s", a, b)
	}
	if a, b := loadsKey(unset, traffic.Uniform{}), loadsKey(anton, traffic.Uniform{}); a != b {
		t.Errorf("loadsKeys differ:\n%s\n%s", a, b)
	}
	state := func(cfg machine.Config) []byte {
		t.Helper()
		m, _, err := BuildMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		cores := m.Topo.Chip.CoreEndpoints()
		for n := 0; n < m.Topo.NumNodes(); n++ {
			src := topo.NodeEp{Node: n, Ep: cores[n%len(cores)]}
			dst := topo.NodeEp{Node: (n + 3) % m.Topo.NumNodes(), Ep: cores[0]}
			m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
		}
		if _, err := m.RunUntilDelivered(uint64(m.Topo.NumNodes()), 10_000); err != nil {
			t.Fatal(err)
		}
		snap, err := m.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if !bytes.Equal(state(unset), state(anton)) {
		t.Error("machines built from a nil Scheme and from AntonScheme diverged")
	}
}

// TestFaultAwareStrategyAbsorbsOutages is the resilience differential: with
// the same seeded permanent link outages, the static anton strategy must
// concede a degraded run (emergency reroutes), while the fault-aware angara
// strategy absorbs the same outages un-degraded by routing around them
// natively — and the routecompare artifact must record that difference.
func TestFaultAwareStrategyAbsorbsOutages(t *testing.T) {
	run := func(scheme route.Strategy) (routeComparePoint, []byte) {
		t.Helper()
		mc := machine.DefaultConfig(topo.Shape3(3, 3, 2))
		mc.Scheme = scheme
		mc.Fault = &fault.Spec{FailLinks: 2}
		job := routeCompareJob(routeCompareConfig{
			Machine: mc,
			Pattern: traffic.Uniform{},
			Batch:   16,
		})
		rs := exp.Run([]exp.Job{job}, exp.Options{Name: "resilience-" + scheme.Name()})
		if rs[0].Err != nil {
			t.Fatalf("%s: %v", scheme.Name(), rs[0].Err)
		}
		data, err := exp.MarshalCanonical(rs)
		if err != nil {
			t.Fatal(err)
		}
		return rs[0].Value.(routeComparePoint), data
	}

	static, staticArt := run(route.AntonScheme{})
	aware, awareArt := run(route.AngaraStrategy{})

	if !static.DegradedRun || static.Rerouted == 0 {
		t.Errorf("anton under 2 dead links: degraded=%v rerouted=%d, want a degraded run with emergency reroutes",
			static.DegradedRun, static.Rerouted)
	}
	if aware.DegradedRun {
		t.Errorf("angara under 2 dead links reported a degraded run; native graph routing should absorb them")
	}
	if aware.RoutedNative == 0 {
		t.Error("angara under 2 dead links routed nothing natively; the outages never exercised the fault router")
	}
	if aware.Rerouted != 0 {
		t.Errorf("angara fell back to emergency rerouting %d packets", aware.Rerouted)
	}

	// The canonical artifacts carry the same story: the static cell is
	// classified degraded and counts reroutes, the fault-aware cell is
	// healthy and counts native fault-routed packets.
	if !bytes.Contains(staticArt, []byte(`"degraded": true`)) || !strings.Contains(string(staticArt), `"rerouted"`) {
		t.Errorf("static artifact does not record the degraded outcome:\n%s", staticArt)
	}
	if bytes.Contains(awareArt, []byte(`"degraded": true`)) || !strings.Contains(string(awareArt), `"routed_native"`) {
		t.Errorf("fault-aware artifact should be un-degraded with routed_native recorded:\n%s", awareArt)
	}
}
