package deadlock

import (
	"strings"
	"testing"

	"anton2/internal/route"
	"anton2/internal/topo"
)

// TestRegisteredStrategiesDeadlockFree is the registry-wide property behind
// the routecompare family: every strategy a user can select must verify
// acyclic — on odd and even radices, asymmetric shapes, degenerate
// dimensions, and long rings, so both the mesh (M-group) and torus (T-group)
// arguments are exercised at several radices.
func TestRegisteredStrategiesDeadlockFree(t *testing.T) {
	shapes := []topo.TorusShape{
		topo.Shape3(2, 2, 2),
		topo.Shape3(3, 3, 3),
		topo.Shape3(4, 4, 4),
		topo.Shape3(5, 3, 2),
		topo.Shape3(8, 2, 2),
		topo.Shape3(4, 4, 1),
		topo.Shape3(16, 1, 1),
	}
	for _, strat := range route.Strategies() {
		for _, shape := range shapes {
			t.Run(strat.Name()+"@"+shape.String(), func(t *testing.T) {
				if testing.Short() && shape.NumNodes() > 27 {
					t.Skip("large shape in -short mode")
				}
				if err := Verify(configFor(t, shape, strat)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRegisteredStrategiesDeadlockFreeNoSkips re-verifies the registry under
// the skip-channel ablations: a strategy's argument must not depend on a
// particular chip skip policy.
func TestRegisteredStrategiesDeadlockFreeNoSkips(t *testing.T) {
	variants := []struct {
		name          string
		useSkip, exit bool
	}{
		{"through-only", true, false},
		{"no-skips", false, false},
	}
	for _, strat := range route.Strategies() {
		for _, v := range variants {
			t.Run(strat.Name()+"/"+v.name, func(t *testing.T) {
				cfg := configFor(t, topo.Shape3(4, 4, 2), strat)
				cfg.UseSkip = v.useSkip
				cfg.ExitSkip = v.exit
				if err := Verify(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestVClessSingleTorusVC pins the headline property of the VC-less
// strategy: the whole verified dependency graph fits in one T-group VC per
// class (Build panics if any walk exceeds the ChannelVCs budget, so merely
// building the graph proves the bound) and its torus routes never touch a
// wrap-around link's dateline VC.
func TestVClessSingleTorusVC(t *testing.T) {
	if got := (route.VClessScheme{}).TorusVCs(); got != 1 {
		t.Fatalf("vcless TorusVCs = %d, want 1", got)
	}
	cfg := configFor(t, topo.Shape3(5, 4, 3), route.VClessScheme{})
	g := Build(cfg)
	if cycle := g.FindCycle(); cycle != nil {
		t.Fatalf("vcless cycle: %s", g.DescribeCycle(cycle))
	}
}

// TestBrokenSchemeStillCaught is the regression guard that the verifier has
// teeth: the unregistered broken-no-dateline scheme must yield a found,
// describable cycle through torus channels — on every shape with a ring
// long enough for multi-hop minimal routes.
func TestBrokenSchemeStillCaught(t *testing.T) {
	if _, registered := route.StrategyByName((route.NoDatelineScheme{}).Name()); registered {
		t.Fatal("broken-no-dateline must not be a registered strategy")
	}
	for _, shape := range []topo.TorusShape{
		topo.Shape3(4, 1, 1),
		topo.Shape3(5, 3, 2),
		topo.Shape3(4, 4, 4),
	} {
		t.Run(shape.String(), func(t *testing.T) {
			cfg := configFor(t, shape, route.NoDatelineScheme{})
			g := Build(cfg)
			cycle := g.FindCycle()
			if cycle == nil {
				t.Fatal("broken no-dateline scheme reported deadlock-free")
			}
			desc := g.DescribeCycle(cycle)
			if !strings.Contains(desc, "torus") || !strings.Contains(desc, ".vc") {
				t.Errorf("cycle description should name torus channel VCs, got %s", desc)
			}
			if err := Verify(cfg); err == nil {
				t.Error("Verify must reject the broken scheme")
			} else if !strings.Contains(err.Error(), "broken-no-dateline") {
				t.Errorf("Verify error should name the scheme, got %v", err)
			}
		})
	}
}

// TestStrategyGraphsDiffer sanity-checks that strategy enumeration feeds the
// analyzer: the vcless graph must be dramatically smaller than anton's (one
// dimension order and one T-VC instead of six orders and four VCs).
func TestStrategyGraphsDiffer(t *testing.T) {
	shape := topo.Shape3(4, 4, 2)
	antonCfg, vclessCfg := configFor(t, shape, route.AntonScheme{}), configFor(t, shape, route.VClessScheme{})
	if v, a := enumerated(vclessCfg), enumerated(antonCfg); v >= a {
		t.Errorf("vcless enumerated %d routes, anton %d; restricted policy should enumerate fewer", v, a)
	}
	if v, a := numEdges(Build(vclessCfg)), numEdges(Build(antonCfg)); v >= a {
		t.Errorf("vcless graph has %d edges, anton %d; single-VC graph should be smaller", v, a)
	}
}
