package loadcalc_test

import (
	"anton2/internal/loadcalc"
	"math"
	"testing"

	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

func computeFor(t testing.TB, shape topo.TorusShape, p traffic.Pattern) (*route.Config, *loadcalc.Loads) {
	t.Helper()
	m, err := topo.NewMachine(shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg := route.NewConfig(m)
	loads := loadcalc.Compute(cfg, m.Chip.CoreEndpoints(), p.Flows(m), route.ClassRequest)
	return cfg, loads
}

func TestUniformLoadsSymmetric(t *testing.T) {
	_, l := computeFor(t, topo.Shape3(4, 4, 4), traffic.Uniform{})
	// On a cube with uniform traffic, all 12 torus adapters carry equal
	// load.
	first := l.Torus[0]
	if first <= 0 {
		t.Fatal("zero torus load under uniform traffic")
	}
	for i, v := range l.Torus {
		if math.Abs(v-first) > 1e-9 {
			t.Errorf("adapter %v load %g != %g; uniform traffic must balance", topo.AdapterByIndex(i), v, first)
		}
	}
}

func TestFlowConservationAtRouters(t *testing.T) {
	cfg, l := computeFor(t, topo.Shape3(3, 3, 2), traffic.Uniform{})
	chip := cfg.Machine.Chip
	// For every router output port, the SA2 input loads must sum to the
	// output channel's load.
	for ri := 0; ri < topo.NumRouters; ri++ {
		r := &chip.Routers[ri]
		for po := range r.Ports {
			var sum float64
			for pi := 0; pi < topo.MaxRouterPorts; pi++ {
				sum += l.SA2[ri][po][pi]
			}
			want := l.Chan[r.Ports[po].OutChan]
			// Output channels fed by non-router sources (none for
			// router out ports) aside, these must match.
			if math.Abs(sum-want) > 1e-9 {
				t.Errorf("router %v port %d: SA2 inputs sum %g, channel load %g",
					r.Coord, po, sum, want)
			}
		}
	}
	// SA1 conservation: per input port, VC loads sum to the input
	// channel's load.
	for ri := 0; ri < topo.NumRouters; ri++ {
		r := &chip.Routers[ri]
		for pi := range r.Ports {
			var sum float64
			for _, v := range l.SA1[ri][pi] {
				sum += v
			}
			want := l.Chan[r.Ports[pi].InChan]
			if math.Abs(sum-want) > 1e-9 {
				t.Errorf("router %v port %d: SA1 VC loads sum %g, channel load %g", r.Coord, pi, sum, want)
			}
		}
	}
}

func TestAdapterConservation(t *testing.T) {
	cfg, l := computeFor(t, topo.Shape3(3, 2, 2), traffic.Uniform{})
	chip := cfg.Machine.Chip
	for ai := 0; ai < topo.NumChannelAdapters; ai++ {
		ad := &chip.Adapters[ai]
		var eg, in float64
		for _, v := range l.AdEg[ai] {
			eg += v
		}
		for _, v := range l.AdIn[ai] {
			in += v
		}
		if math.Abs(eg-l.Torus[ai]) > 1e-9 {
			t.Errorf("adapter %v: egress VC loads %g != torus load %g", ad.ID, eg, l.Torus[ai])
		}
		if math.Abs(in-l.Chan[ad.ToRouter]) > 1e-9 {
			t.Errorf("adapter %v: ingress VC loads %g != to-router load %g", ad.ID, in, l.Chan[ad.ToRouter])
		}
	}
}

func TestTorusLoadSumMatchesMeanHops(t *testing.T) {
	_, l := computeFor(t, topo.Shape3(4, 3, 2), traffic.Uniform{})
	var sum float64
	for _, v := range l.Torus {
		sum += v
	}
	// Total torus traversals per round = sources x mean hops.
	want := float64(l.Sources) * l.MeanTorusHops
	if math.Abs(sum-want) > 1e-6 {
		t.Errorf("torus load sum %g != sources x mean hops %g", sum, want)
	}
	if l.MeanTorusHops <= 0 {
		t.Error("mean torus hops must be positive for uniform traffic")
	}
}

func TestTornadoLoadsDirectional(t *testing.T) {
	_, l := computeFor(t, topo.Shape3(4, 4, 4), traffic.Tornado())
	// Tornado on k=4 sends every packet +1 in each dimension: only
	// positive-direction channels carry load.
	for i, v := range l.Torus {
		ad := topo.AdapterByIndex(i)
		if ad.Dir.Positive() && v <= 0 {
			t.Errorf("adapter %v should carry tornado load", ad)
		}
		if !ad.Dir.Positive() && v != 0 {
			t.Errorf("adapter %v carries %g load; tornado is one-directional", ad, v)
		}
	}
}

func TestSaturationRate(t *testing.T) {
	_, l := computeFor(t, topo.Shape3(4, 4, 4), traffic.Uniform{})
	r := l.SaturationRate()
	if r <= 0 || r > 1 {
		t.Fatalf("saturation rate %g out of range", r)
	}
	// Manual check: capacity / max load.
	want := (1000.0 / 3214.0) / l.MaxTorusLoad()
	if math.Abs(r-want) > 1e-12 {
		t.Errorf("saturation rate %g, want %g", r, want)
	}
}

func TestBuildWeightsShape(t *testing.T) {
	cfg, l1 := computeFor(t, topo.Shape3(2, 2, 2), traffic.Tornado())
	l2 := loadcalc.Compute(cfg, cfg.Machine.Chip.CoreEndpoints(), traffic.ReverseTornado().Flows(cfg.Machine), route.ClassRequest)
	ws := loadcalc.BuildWeights(l1, l2)
	maxVC := route.MaxTotalVCs(cfg.Scheme)
	for ri := 0; ri < topo.NumRouters; ri++ {
		for p := 0; p < topo.MaxRouterPorts; p++ {
			if len(ws.SA2[ri][p]) != topo.MaxRouterPorts {
				t.Fatalf("SA2 weight row has %d entries", len(ws.SA2[ri][p]))
			}
			if len(ws.SA1[ri][p]) != maxVC {
				t.Fatalf("SA1 weight row has %d entries, want %d", len(ws.SA1[ri][p]), maxVC)
			}
		}
	}
	for a := 0; a < topo.NumChannelAdapters; a++ {
		if len(ws.AdEg[a]) != maxVC || len(ws.AdIn[a]) != maxVC {
			t.Fatalf("adapter weight rows misshapen")
		}
	}
}

func TestMaxMeshLoadReported(t *testing.T) {
	_, l := computeFor(t, topo.Shape3(3, 3, 3), traffic.Uniform{})
	load, id := l.MaxMeshLoad()
	if load <= 0 || id < 0 {
		t.Fatalf("MaxMeshLoad = %g, %d", load, id)
	}
}

// pinnedSlice is a strategy whose packets all take one torus slice: the
// choices of the wrapped strategy on that slice, reweighted to sum to 1.
type pinnedSlice struct {
	route.Strategy
	slice uint8
}

func (p pinnedSlice) Enumerate(shape topo.TorusShape, a, b topo.NodeCoord) []route.WeightedChoice {
	var out []route.WeightedChoice
	total := 0.0
	for _, wc := range p.Strategy.Enumerate(shape, a, b) {
		if wc.Slice == p.slice {
			out = append(out, wc)
			total += wc.Weight
		}
	}
	for i := range out {
		out[i].Weight /= total
	}
	return out
}

// TestSliceRandomizationBalances: pinning every packet to one slice doubles
// the load on that slice's channels — the ablation behind channel slicing
// plus per-packet slice randomization (Section 2.3).
func TestSliceRandomizationBalances(t *testing.T) {
	m, err := topo.NewMachine(topo.Shape3(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := route.NewConfig(m)
	flows := traffic.Uniform{}.Flows(m)
	balanced := loadcalc.Compute(cfg, m.Chip.CoreEndpoints(), flows, route.ClassRequest)
	pinnedCfg := route.NewConfig(m)
	pinnedCfg.Scheme = pinnedSlice{cfg.Scheme, 0}
	pinned := loadcalc.Compute(pinnedCfg, m.Chip.CoreEndpoints(), flows, route.ClassRequest)

	ratio := pinned.MaxTorusLoad() / balanced.MaxTorusLoad()
	if math.Abs(ratio-2) > 1e-9 {
		t.Errorf("pinned-slice max load ratio = %g, want exactly 2", ratio)
	}
	// Slice-1 channels must be idle when pinned to slice 0.
	for i, v := range pinned.Torus {
		if topo.AdapterByIndex(i).Slice == 1 && v != 0 {
			t.Errorf("slice-1 adapter %v carries %g load despite pinning", topo.AdapterByIndex(i), v)
		}
	}
}
