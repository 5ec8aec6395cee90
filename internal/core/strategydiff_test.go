package core

import (
	"bytes"
	"strings"
	"testing"

	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// The strategy-differential suite itself (every registered strategy x every
// family x every engine variant, byte-identical canonical artifacts) lives in
// the diffRows table of enginediff_test.go; this file keeps the two
// strategy-specific behavioural tests.

// TestStrategyCheckedRuns completes one measured routecompare point per
// (strategy, fail-link count) under the full runtime invariant suite: the
// run must finish deadlock-free with flit conservation, credit accounting,
// and VC monotonicity intact, and the healthy cell must carry a verified
// deadlock-free verdict.
func TestStrategyCheckedRuns(t *testing.T) {
	for _, strat := range route.Strategies() {
		for _, n := range []int{0, 1} {
			strat, n := strat, n
			name := strat.Name() + "/healthy"
			if n > 0 {
				name = strat.Name() + "/faillinks=1"
			}
			t.Run(name, func(t *testing.T) {
				mc := machine.DefaultConfig(stratShape)
				mc.Check = true
				mc.Scheme = strat
				if n > 0 {
					mc.Fault = &fault.Spec{FailLinks: n}
				}
				pt, err := RunRouteComparePoint(RouteCompareConfig{
					Machine:        mc,
					Pattern:        traffic.Uniform{},
					Batch:          8,
					VerifyDeadlock: n == 0,
				})
				if err != nil {
					t.Fatalf("%s: checked run failed: %v", strat.Name(), err)
				}
				if n == 0 && (!pt.DeadlockVerified || !pt.DeadlockFree) {
					t.Errorf("%s: healthy cell verdict = verified %v, free %v",
						strat.Name(), pt.DeadlockVerified, pt.DeadlockFree)
				}
			})
		}
	}
}

// TestFaultAwareStrategyAbsorbsOutages is the resilience differential: with
// the same seeded permanent link outages, the static anton strategy must
// concede a degraded run (emergency reroutes), while the fault-aware angara
// strategy absorbs the same outages un-degraded by routing around them
// natively — and the routecompare artifact must record that difference.
func TestFaultAwareStrategyAbsorbsOutages(t *testing.T) {
	run := func(scheme route.Scheme) (RouteComparePoint, []byte) {
		t.Helper()
		mc := machine.DefaultConfig(topo.Shape3(3, 3, 2))
		mc.Scheme = scheme
		mc.Fault = &fault.Spec{FailLinks: 2}
		job := RouteCompareJob(RouteCompareConfig{
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
		return rs[0].Value.(RouteComparePoint), data
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
