package check_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"anton2/internal/core"
	"anton2/internal/deadlock"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/wctraffic"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden artifacts under testdata/golden instead of comparing against them")

// headlineGolden pins the repository's headline results to a reviewed JSON
// artifact, so a change to any of them is a visible diff rather than a
// silently shifting number.
type headlineGolden struct {
	// Section 2.4: worst-case mesh-channel load of the best direction
	// order under all-pairs permutation traffic (the paper's 2.0).
	WorstCaseMeshLoad   float64 `json:"worst_case_mesh_load"`
	OptimalOrderCount   int     `json:"optimal_order_count"`
	DefaultOrderOptimal bool    `json:"default_order_optimal"`

	// Section 2.5: static deadlock verdicts, keyed "<scheme>@<shape>".
	DeadlockFree map[string]bool `json:"deadlock_free"`

	// Analytic per-source saturation rates (packets/cycle) on the
	// paper-scale 8x8x8 machine, keyed by traffic pattern.
	SaturationRate8x8x8 map[string]float64 `json:"saturation_rate_8x8x8"`

	// End-to-end MD timestep time (cycles) of the default phased workload
	// on a 2x2x2 machine, keyed by routing strategy. Simulation results are
	// deterministic and engine-invariant, so these are exact pins.
	MDStepCycles map[string]uint64 `json:"mdstep_cycles_2x2x2"`
}

func computeHeadline(t *testing.T) headlineGolden {
	t.Helper()
	g := headlineGolden{
		DeadlockFree:        map[string]bool{},
		SaturationRate8x8x8: map[string]float64{},
		MDStepCycles:        map[string]uint64{},
	}

	winners, best := wctraffic.Best(topo.DefaultChip(), wctraffic.DefaultPolicy)
	g.WorstCaseMeshLoad = best
	g.OptimalOrderCount = len(winners)
	for _, w := range winners {
		if w.Order == topo.DefaultDirOrder {
			g.DefaultOrderOptimal = true
		}
	}

	verdicts := []struct {
		scheme route.Strategy
		shape  topo.TorusShape
	}{
		{route.AntonScheme{}, topo.Shape3(4, 4, 4)},
		{route.BaselineScheme{}, topo.Shape3(4, 4, 4)},
		{route.NoDatelineScheme{}, topo.Shape3(4, 1, 1)},
	}
	for _, v := range verdicts {
		m, err := topo.NewMachine(v.shape)
		if err != nil {
			t.Fatal(err)
		}
		cfg := route.NewConfig(m)
		cfg.Scheme = v.scheme
		key := fmt.Sprintf("%s@%s", v.scheme.Name(), v.shape)
		g.DeadlockFree[key] = deadlock.Verify(cfg, deadlock.Options{}) == nil
	}

	mc := machine.DefaultConfig(topo.Shape3(8, 8, 8))
	for _, p := range []traffic.Pattern{
		traffic.Uniform{}, traffic.NHop{N: 2}, traffic.Tornado(), traffic.BitComplement(),
	} {
		l, err := core.PatternLoads(mc, p)
		if err != nil {
			t.Fatalf("PatternLoads(%s): %v", p.Name(), err)
		}
		g.SaturationRate8x8x8[p.Name()] = l.SaturationRate()
	}

	for _, strat := range route.Strategies() {
		smc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
		smc.Scheme = strat
		pt, err := core.RunMDStepPoint(core.MDStepConfig{Machine: smc})
		if err != nil {
			t.Fatalf("mdstep %s: %v", strat.Name(), err)
		}
		g.MDStepCycles[strat.Name()] = pt.TotalCycles
	}
	return g
}

func relClose(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// TestGoldenHeadlineNumbers recomputes every headline artifact and compares
// it against testdata/golden/headline.json. Run with -update-golden to
// regenerate the file after an intentional change.
func TestGoldenHeadlineNumbers(t *testing.T) {
	got := computeHeadline(t)
	path := filepath.Join("testdata", "golden", "headline.json")

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	var want headlineGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}

	if !relClose(got.WorstCaseMeshLoad, want.WorstCaseMeshLoad) {
		t.Errorf("worst-case mesh load %g, golden %g", got.WorstCaseMeshLoad, want.WorstCaseMeshLoad)
	}
	if got.OptimalOrderCount != want.OptimalOrderCount {
		t.Errorf("optimal order count %d, golden %d", got.OptimalOrderCount, want.OptimalOrderCount)
	}
	if got.DefaultOrderOptimal != want.DefaultOrderOptimal {
		t.Errorf("default order optimal = %v, golden %v", got.DefaultOrderOptimal, want.DefaultOrderOptimal)
	}
	if len(got.DeadlockFree) != len(want.DeadlockFree) {
		t.Errorf("deadlock verdict count %d, golden %d", len(got.DeadlockFree), len(want.DeadlockFree))
	}
	for k, w := range want.DeadlockFree {
		if g, ok := got.DeadlockFree[k]; !ok || g != w {
			t.Errorf("deadlock_free[%q] = %v (present %v), golden %v", k, g, ok, w)
		}
	}
	if len(got.SaturationRate8x8x8) != len(want.SaturationRate8x8x8) {
		t.Errorf("saturation entry count %d, golden %d", len(got.SaturationRate8x8x8), len(want.SaturationRate8x8x8))
	}
	for k, w := range want.SaturationRate8x8x8 {
		if g, ok := got.SaturationRate8x8x8[k]; !ok || !relClose(g, w) {
			t.Errorf("saturation_rate_8x8x8[%q] = %g (present %v), golden %g", k, g, ok, w)
		}
	}
	if len(got.MDStepCycles) != len(want.MDStepCycles) {
		t.Errorf("mdstep entry count %d, golden %d", len(got.MDStepCycles), len(want.MDStepCycles))
	}
	for k, w := range want.MDStepCycles {
		if g, ok := got.MDStepCycles[k]; !ok || g != w {
			t.Errorf("mdstep_cycles_2x2x2[%q] = %d (present %v), golden %d", k, g, ok, w)
		}
	}

	// The headline of headlines, asserted directly so a careless
	// -update-golden cannot silently launder a regression: the optimized
	// direction order holds worst-case mesh load to 2.0 (Figure 4), and
	// the n+1 promotion scheme is deadlock-free while the dateline-less
	// variant is not.
	if got.WorstCaseMeshLoad != 2.0 {
		t.Errorf("worst-case mesh load = %g, paper claims 2.0", got.WorstCaseMeshLoad)
	}
	if !got.DeadlockFree["anton@4x4x4"] || !got.DeadlockFree["baseline-2n@4x4x4"] {
		t.Error("production schemes must verify deadlock-free on 4x4x4")
	}
	if got.DeadlockFree["broken-no-dateline@4x1x1"] {
		t.Error("no-dateline scheme must have a cycle on the radix-4 ring")
	}
}
