package loadcalc_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"anton2/internal/loadcalc"
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

// TestUniformLoadsMeshChannels: uniform traffic loads the chip's mesh
// channels.
func TestUniformLoadsMeshChannels(t *testing.T) {
	_, l := computeFor(t, topo.Shape3(3, 3, 3), traffic.Uniform{})
	if max := slices.Max(l.Chan); max <= 0 {
		t.Fatalf("heaviest mesh channel load = %g, want > 0", max)
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

// walkOracle is the per-route enumerator Compute replaced, kept as its
// oracle: every route walked whole by route.Walk and accumulated hop by hop.
func walkOracle(cfg *route.Config, sources []int, flows loadcalc.FlowFunc, class route.Class) *loadcalc.Loads {
	m := cfg.Machine
	l := &loadcalc.Loads{
		Chan:    make([]float64, m.NumIntraChans()),
		Sources: len(sources),
	}
	maxVC := route.MaxTotalVCs(cfg.Scheme)
	for r := 0; r < topo.NumRouters; r++ {
		for p := 0; p < topo.MaxRouterPorts; p++ {
			l.SA1[r][p] = make([]float64, maxVC)
		}
	}
	for a := 0; a < topo.NumChannelAdapters; a++ {
		l.AdEg[a] = make([]float64, maxVC)
		l.AdIn[a] = make([]float64, maxVC)
	}

	for _, srcEp := range sources {
		src := topo.NodeEp{Node: 0, Ep: srcEp}
		fl := flows(srcEp)
		for _, f := range fl {
			srcC := m.Shape.Coord(0)
			dstC := m.Shape.Coord(f.Dst.Node)
			for _, wc := range cfg.Scheme.Enumerate(m.Shape, srcC, dstC) {
				w := f.Frac * wc.Weight
				hops := route.Walk(cfg, src, f.Dst, wc.Order, wc.Slice, wc.Ties, class)
				accumulate(l, cfg, hops, w, class)
			}
		}
	}
	return l
}

func accumulate(l *loadcalc.Loads, cfg *route.Config, hops []route.Hop, w float64, class route.Class) {
	m := cfg.Machine
	for i, h := range hops {
		if m.IsTorusChan(h.Chan) {
			_, ad := m.TorusChanOf(h.Chan)
			l.Torus[ad.Index()] += w
			l.MeanTorusHops += w / float64(l.Sources)
		} else {
			l.Chan[h.Chan%m.NumIntraChans()] += w
		}
		if i == 0 {
			continue
		}
		transition(l, cfg, hops[i-1], h, w, class)
	}
}

// transition records the arbiter-input load of moving from channel a to
// channel b at the component between them.
func transition(l *loadcalc.Loads, cfg *route.Config, a, b route.Hop, w float64, class route.Class) {
	m := cfg.Machine
	aTorus, bTorus := m.IsTorusChan(a.Chan), m.IsTorusChan(b.Chan)
	switch {
	case aTorus && !bTorus:
		// Torus arrival -> channel-adapter ingress arbiter.
		_, ad := m.TorusChanOf(a.Chan)
		vc := route.PhysVC(cfg.Scheme, topo.GroupT, class, a.VC)
		l.AdIn[ad.Index()][vc] += w
	case !aTorus && bTorus:
		// Router-to-adapter channel -> adapter egress arbiter. The
		// egress queue is indexed by the arrival (pre-dateline) VC.
		_, bad := m.TorusChanOf(b.Chan)
		vc := route.PhysVC(cfg.Scheme, topo.GroupT, class, a.VC)
		l.AdEg[bad.Index()][vc] += w
	case !aTorus && !bTorus:
		// Router transition: SA1 (input port, VC) and SA2 (output
		// port, input port).
		_, ach := m.IntraChanOf(a.Chan)
		in := m.Chip.InPortOf(a.Chan % m.NumIntraChans())
		out := outPort(m.Chip, b.Chan%m.NumIntraChans())
		if in.Router < 0 || out.Router < 0 || in.Router != out.Router {
			panic("loadcalc: intra transition does not cross a router")
		}
		vc := route.PhysVC(cfg.Scheme, ach.Group, class, a.VC)
		l.SA1[in.Router][in.Port][vc] += w
		l.SA2[in.Router][out.Port][in.Port] += w
	default:
		panic("loadcalc: torus-to-torus transition is impossible")
	}
}

// outPort returns the router port chip channel ch leaves through (router -1
// when no router drives it).
func outPort(chip *topo.Chip, ch int) topo.PortRef {
	for ri := range chip.Routers {
		for pi, p := range chip.Routers[ri].Ports {
			if p.OutChan == ch {
				return topo.PortRef{Router: ri, Port: pi}
			}
		}
	}
	return topo.PortRef{Router: -1}
}

// bitDiff names the first load in which got and want differ in any bit, or
// returns "" when every field is bit-identical.
func bitDiff(got, want *loadcalc.Loads) string {
	var d string
	cmp := func(name string, g, w []float64) {
		for i := 0; d == "" && i < max(len(g), len(w)); i++ {
			if i >= len(g) || i >= len(w) {
				d = fmt.Sprintf("%s: %d loads, want %d", name, len(g), len(w))
			} else if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				d = fmt.Sprintf("%s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	cmp("Chan", got.Chan, want.Chan)
	cmp("Torus", got.Torus[:], want.Torus[:])
	cmp("MeanTorusHops", []float64{got.MeanTorusHops}, []float64{want.MeanTorusHops})
	for r := range got.SA2 {
		for p := range got.SA2[r] {
			cmp(fmt.Sprintf("SA2[%d][%d]", r, p), got.SA2[r][p][:], want.SA2[r][p][:])
			cmp(fmt.Sprintf("SA1[%d][%d]", r, p), got.SA1[r][p], want.SA1[r][p])
		}
	}
	for a := range got.AdEg {
		cmp(fmt.Sprintf("AdEg[%d]", a), got.AdEg[a], want.AdEg[a])
		cmp(fmt.Sprintf("AdIn[%d]", a), got.AdIn[a], want.AdIn[a])
	}
	if d == "" && got.Sources != want.Sources {
		d = fmt.Sprintf("Sources = %d, want %d", got.Sources, want.Sources)
	}
	return d
}

// TestComputeMatchesWalkOracle: composing routes from memoized prefixes and
// sinks leaves every load bit-identical to walking each route whole, for
// every registered strategy plus a slice-pinned one, every pattern, and the
// skip ablations. On 2x2x2 tornado's destinations share the source's node,
// so those routes are walked whole. The matrix sources from four of the
// sixteen cores to keep the oracle's cost down; the 8x8x8 row from all.
func TestComputeMatchesWalkOracle(t *testing.T) {
	match := func(cfg *route.Config, sources []int, p traffic.Pattern) string {
		m := cfg.Machine
		want := walkOracle(cfg, sources, p.Flows(m), route.ClassRequest)
		return bitDiff(loadcalc.Compute(cfg, sources, p.Flows(m), route.ClassRequest), want)
	}
	strategies := append(route.Strategies(), route.Strategy(pinnedSlice{route.AntonScheme{}, 1}))
	ablations := []struct {
		name string
		set  func(*route.Config)
	}{
		{"default", func(*route.Config) {}},
		{"noexitskip", func(c *route.Config) { c.ExitSkip = false }},
		{"entryskip", func(c *route.Config) { c.EntrySkip = true }},
	}
	for _, shape := range []topo.TorusShape{topo.Shape3(2, 2, 2), topo.Shape3(3, 3, 2), topo.Shape3(4, 2, 2), topo.Shape3(4, 4, 2)} {
		m := topo.MustMachine(shape)
		cores := m.Chip.CoreEndpoints()
		sources := []int{cores[0], cores[5], cores[10], cores[15]}
		for si, s := range strategies {
			for _, ab := range ablations {
				cfg := route.NewConfig(m)
				cfg.Scheme = s
				ab.set(cfg)
				for _, name := range traffic.Names() {
					p, _ := traffic.ByName(name)
					if d := match(cfg, sources, p); d != "" {
						t.Errorf("%v strategy %d (%s) %s %s: %s", shape, si, s.Name(), ab.name, name, d)
					}
				}
			}
		}
	}
	t.Run("8x8x8/uniform/anton", func(t *testing.T) {
		if testing.Short() {
			t.Skip("the oracle walks 8x8x8 in ~3 s")
		}
		m := topo.MustMachine(topo.Shape3(8, 8, 8))
		if d := match(route.NewConfig(m), m.Chip.CoreEndpoints(), traffic.Uniform{}); d != "" {
			t.Error(d)
		}
	})
}

// TestComputeAllocs: Compute allocates per distinct segment table, not per
// route: one choice list per destination node, one flow list per source, and
// the logarithmic growth of its tables — a few hundred allocations where a
// walk per route made ~285 000 at 4x4x2.
func TestComputeAllocs(t *testing.T) {
	m := topo.MustMachine(topo.Shape3(4, 4, 2))
	cfg := route.NewConfig(m)
	sources := m.Chip.CoreEndpoints()
	flows := traffic.Uniform{}.Flows(m)
	allocs := testing.AllocsPerRun(2, func() { loadcalc.Compute(cfg, sources, flows, route.ClassRequest) })
	if budget := float64(m.NumNodes() + len(sources) + 192); allocs > budget {
		t.Errorf("Compute made %.0f allocations at 4x4x2 uniform, want <= %.0f", allocs, budget)
	}
}

// BenchmarkCompute prices one cold uniform load table: the 4x4x2 MD shape
// and the 8x8x8 saturation shape, every core a source.
func BenchmarkCompute(b *testing.B) {
	for _, shape := range []topo.TorusShape{topo.Shape3(4, 4, 2), topo.Shape3(8, 8, 8)} {
		b.Run(shape.String(), func(b *testing.B) {
			m := topo.MustMachine(shape)
			cfg := route.NewConfig(m)
			sources := m.Chip.CoreEndpoints()
			flows := traffic.Uniform{}.Flows(m)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				loadcalc.Compute(cfg, sources, flows, route.ClassRequest)
			}
		})
	}
}
