package deadlock

import (
	"strings"
	"testing"

	"anton2/internal/route"
	"anton2/internal/topo"
)

func configFor(t testing.TB, shape topo.TorusShape, s route.Strategy) *route.Config {
	t.Helper()
	m, err := topo.NewMachine(shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg := route.NewConfig(m)
	cfg.Scheme = s
	return cfg
}

// TestAntonSchemeDeadlockFree is the central Section 2.5 claim: the n+1-VC
// promotion algorithm is deadlock-free under minimal routing, with datelines
// between nodes k-1 and 0 in both directions.
func TestAntonSchemeDeadlockFree(t *testing.T) {
	shapes := []topo.TorusShape{
		topo.Shape3(2, 2, 2),
		topo.Shape3(4, 4, 4),
		topo.Shape3(8, 2, 2),
		topo.Shape3(5, 3, 2),
		topo.Shape3(3, 3, 3),
		topo.Shape3(4, 4, 1),
		topo.Shape3(16, 1, 1),
	}
	for _, shape := range shapes {
		t.Run(shape.String(), func(t *testing.T) {
			if err := Verify(configFor(t, shape, route.AntonScheme{}), Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBaselineSchemeDeadlockFree: the prior 2n-VC approach is also
// deadlock-free (it just costs more VCs).
func TestBaselineSchemeDeadlockFree(t *testing.T) {
	shapes := []topo.TorusShape{
		topo.Shape3(4, 4, 4),
		topo.Shape3(5, 3, 2),
		topo.Shape3(8, 2, 2),
	}
	for _, shape := range shapes {
		t.Run(shape.String(), func(t *testing.T) {
			if err := Verify(configFor(t, shape, route.BaselineScheme{}), Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNoDatelineSchemeHasCycle: removing dateline VC promotion creates a
// cyclic dependency around any ring with radix >= 4 (where minimal routes of
// two or more hops exist), validating that the analyzer detects real
// hazards.
func TestNoDatelineSchemeHasCycle(t *testing.T) {
	cfg := configFor(t, topo.Shape3(4, 1, 1), route.NoDatelineScheme{})
	g := Build(cfg, Options{})
	cycle := g.FindCycle()
	if cycle == nil {
		t.Fatal("broken no-dateline scheme reported deadlock-free")
	}
	desc := g.DescribeCycle(cycle)
	if !strings.Contains(desc, "torus") {
		t.Errorf("cycle should involve torus channels, got %s", desc)
	}
}

// TestNoDatelineSchemeSafeOnTinyRings: with radix <= 3 every minimal ring
// route is a single hop, so even the broken scheme happens to be acyclic;
// the analyzer must not report false positives.
func TestNoDatelineSchemeSafeOnTinyRings(t *testing.T) {
	cfg := configFor(t, topo.Shape3(3, 2, 2), route.NoDatelineScheme{})
	if err := Verify(cfg, Options{}); err != nil {
		t.Fatalf("false positive on tiny rings: %v", err)
	}
}

// TestMGroupSingleVCAcyclic: direction-order routing is deadlock-free with a
// single VC within the M-group (Section 2.4). Restrict the graph to M-group
// channels at VC 0 and check acyclicity for every direction order.
func TestMGroupSingleVCAcyclic(t *testing.T) {
	for _, ord := range topo.AllDirOrders() {
		cfg := configFor(t, topo.Shape3(2, 2, 1), route.AntonScheme{})
		cfg.DirOrder = ord
		g := Build(cfg, Options{})
		// The full graph being acyclic implies the M-restricted graph is
		// too; verify the full graph.
		if cycle := g.FindCycle(); cycle != nil {
			t.Fatalf("direction order %v: %s", ord, g.DescribeCycle(cycle))
		}
	}
}

func TestGraphStatsReasonable(t *testing.T) {
	cfg := configFor(t, topo.Shape3(2, 2, 2), route.AntonScheme{})
	g := Build(cfg, Options{})
	if g.Routes() < 8*8*12 {
		t.Errorf("only %d routes enumerated; expected at least all pairs x orders x slices", g.Routes())
	}
	if g.NumEdges() == 0 {
		t.Error("no dependency edges recorded")
	}
}

func TestDescribeCycleAcyclic(t *testing.T) {
	g := &Graph{maxVCs: 4}
	if got := g.DescribeCycle(nil); got != "acyclic" {
		t.Errorf("DescribeCycle(nil) = %q", got)
	}
}

// TestConfigVariantsDeadlockFree covers the shipped configuration space:
// with and without exit-skip crossings, and with skips disabled entirely.
func TestConfigVariantsDeadlockFree(t *testing.T) {
	shapes := []topo.TorusShape{topo.Shape3(4, 4, 2), topo.Shape3(8, 2, 2)}
	variants := []struct {
		name          string
		useSkip, exit bool
	}{
		{"through+exit", true, true},
		{"through-only", true, false},
		{"no-skips", false, false},
	}
	for _, shape := range shapes {
		for _, v := range variants {
			cfg := configFor(t, shape, route.AntonScheme{})
			cfg.UseSkip = v.useSkip
			cfg.ExitSkip = v.exit
			if err := Verify(cfg, Options{}); err != nil {
				t.Errorf("%v %s: %v", shape, v.name, err)
			}
		}
	}
}

// TestEntryPlusExitSkipIsCyclic pins the design finding of DESIGN.md §6:
// enabling both entry- and exit-side skip crossings creates single-VC
// cycles through the mesh.
func TestEntryPlusExitSkipIsCyclic(t *testing.T) {
	cfg := configFor(t, topo.Shape3(8, 2, 2), route.AntonScheme{})
	cfg.EntrySkip = true
	cfg.ExitSkip = true
	if err := Verify(cfg, Options{}); err == nil {
		t.Fatal("entry+exit skip policy reported deadlock-free; the analyzer should find the mesh cycle")
	}
}
