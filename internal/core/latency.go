package core

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/stats"
	"anton2/internal/topo"
)

// LatencyConfig describes the Figure 11 ping-pong measurement: a remote
// write with 16 bytes of payload from core A dispatches a software handler
// on core B, which writes back; one-way latency is half the round trip and
// includes software and synchronization overheads.
type LatencyConfig struct {
	Machine machine.Config
	// SendOverhead / RecvOverhead model the software cost of composing a
	// send and of synchronization plus handler dispatch, in cycles.
	SendOverhead uint64
	RecvOverhead uint64
	// PingPongs per endpoint pair.
	PingPongs int
	// PairsPerHop averages over several endpoint pairs at each hop count.
	PairsPerHop int
	// MaxHops bounds the sweep (0 = the machine's diameter).
	MaxHops int
}

// DefaultLatencyConfig returns overheads calibrated so a nearest-neighbor
// one-way latency lands near the paper's 99 ns (Figure 12), with the
// network contributing ~40%.
func DefaultLatencyConfig(shape topo.TorusShape) LatencyConfig {
	return LatencyConfig{
		Machine:      machine.DefaultConfig(shape),
		SendOverhead: 38, // ~25 ns: software compose + doorbell
		RecvOverhead: 52, // ~35 ns: counted-write sync + handler dispatch
		PingPongs:    8,
		PairsPerHop:  6,
	}
}

// LatencyPoint is the mean one-way latency at one inter-node hop count.
type LatencyPoint struct {
	Hops   int
	MeanNS float64
	Pairs  int
}

// LatencyResult is a full Figure 11 sweep with its linear fit.
type LatencyResult struct {
	Points []LatencyPoint
	// Fit: one-way latency ~= InterceptNS + SlopeNS * hops.
	SlopeNS     float64
	InterceptNS float64
	R2          float64
	// MinNS is the smallest observed one-hop latency (Figure 12's
	// 99 ns headline).
	MinNS float64
}

// diameter returns the maximum inter-node hop distance.
func diameter(s topo.TorusShape) int {
	d := 0
	for i := 0; i < topo.NumDims; i++ {
		d += s.K[i] / 2
	}
	return d
}

// RunLatency measures one-way latency as a function of hop count.
func RunLatency(cfg LatencyConfig) (LatencyResult, error) {
	m, _, err := BuildMachine(cfg.Machine)
	if err != nil {
		return LatencyResult{}, err
	}
	tm := m.Topo
	maxHops := cfg.MaxHops
	if maxHops == 0 || maxHops > diameter(tm.Shape) {
		maxHops = diameter(tm.Shape)
	}

	// Collect candidate destination nodes by hop distance from node 0;
	// sampling node pairs is equivalent to sampling all pairs by
	// node symmetry.
	byHops := map[int][]int{}
	for n := 1; n < tm.NumNodes(); n++ {
		h := tm.Shape.HopDistance(tm.Shape.Coord(0), tm.Shape.Coord(n))
		byHops[h] = append(byHops[h], n)
	}

	rng := sim.NewRNG(cfg.Machine.Seed, "latency-pairs")
	var result LatencyResult
	result.MinNS = 1e18
	cores := tm.Chip.CoreEndpoints()

	var xs, ys []float64
	for h := 1; h <= maxHops; h++ {
		nodes := byHops[h]
		if len(nodes) == 0 {
			continue
		}
		var lat []float64
		pairs := cfg.PairsPerHop
		if pairs > len(nodes)*len(cores) {
			pairs = len(nodes) * len(cores)
		}
		for p := 0; p < pairs; p++ {
			a := topo.NodeEp{Node: 0, Ep: cores[rng.Intn(len(cores))]}
			b := topo.NodeEp{Node: nodes[rng.Intn(len(nodes))], Ep: cores[rng.Intn(len(cores))]}
			oneWay, err := pingPong(m, cfg, a, b, rng)
			if err != nil {
				return result, err
			}
			lat = append(lat, oneWay)
			if h == 1 && oneWay < result.MinNS {
				result.MinNS = oneWay
			}
		}
		mean := stats.Mean(lat)
		result.Points = append(result.Points, LatencyPoint{Hops: h, MeanNS: mean, Pairs: len(lat)})
		xs = append(xs, float64(h))
		ys = append(ys, mean)
	}
	if len(xs) >= 2 {
		result.SlopeNS, result.InterceptNS, result.R2 = stats.LinearFit(xs, ys)
	}
	sort.Slice(result.Points, func(i, j int) bool { return result.Points[i].Hops < result.Points[j].Hops })
	if err := m.FinishChecks(); err != nil {
		return result, fmt.Errorf("core: latency sweep: %w", err)
	}
	return result, nil
}

// pingPong runs cfg.PingPongs round trips between a and b on an otherwise
// idle machine and returns the mean one-way latency in nanoseconds.
func pingPong(m *machine.Machine, cfg LatencyConfig, a, b topo.NodeEp, rng *rand.Rand) (float64, error) {
	type state struct {
		t0        uint64
		completed int
		totalRT   uint64
	}
	st := &state{}
	send := func(src, dst topo.NodeEp, now uint64) {
		p := m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng)
		p.NotBefore = now + cfg.SendOverhead + m.Cfg.EndpointPipeline
		m.Endpoint(src).Inject(p)
	}
	epB := m.Endpoint(b)
	epA := m.Endpoint(a)
	epB.OnDeliver = func(p *packet.Packet, now uint64) bool {
		// Handler dispatch on B, then the reply write.
		send(b, a, now+cfg.RecvOverhead)
		return false
	}
	done := false
	epA.OnDeliver = func(p *packet.Packet, now uint64) bool {
		rt := now + cfg.RecvOverhead - st.t0
		st.totalRT += rt
		st.completed++
		if st.completed < cfg.PingPongs {
			st.t0 = now + cfg.RecvOverhead
			send(a, b, st.t0)
		} else {
			done = true
		}
		return false
	}
	st.t0 = m.Engine.Now()
	send(a, b, st.t0)
	if err := m.Engine.RunUntil(func() bool { return done }, 4_000_000, 100_000); err != nil {
		return 0, fmt.Errorf("core: ping-pong %v<->%v: %w", a, b, err)
	}
	epA.OnDeliver, epB.OnDeliver = nil, nil
	meanRT := float64(st.totalRT) / float64(st.completed)
	return machine.CyclesToNS(meanRT / 2), nil
}

// LatencyComponent is one contribution to the minimum-latency decomposition
// (Figure 12).
type LatencyComponent struct {
	Name string
	NS   float64
}

// DecomposeMinLatency derives the nearest-neighbor one-way latency budget
// from the configuration, mirroring Figure 12's breakdown. It reflects the
// shortest path: source core at the Y-adapter router, one Y torus hop,
// destination core at the ingress router.
func DecomposeMinLatency(cfg LatencyConfig) []LatencyComponent {
	mc := cfg.Machine
	ns := machine.CyclesToNS
	routerNS := ns(topo.RouterPipeline + 1) // pipeline + switch/output
	return []LatencyComponent{
		{Name: "software send", NS: ns(float64(cfg.SendOverhead))},
		{Name: "endpoint adapter (E)", NS: ns(float64(mc.EndpointPipeline + topo.MeshLatency))},
		{Name: "router RC/VA/SA1/SA2 (R)", NS: routerNS},
		{Name: "mesh channel to adapter", NS: ns(topo.MeshLatency)},
		{Name: "channel adapter egress (C)", NS: ns(topo.AdapterPipeline)},
		{Name: "serialization + SerDes + wire", NS: ns(float64(topo.TorusLatency) + 3.214)},
		{Name: "channel adapter ingress (C)", NS: ns(topo.AdapterPipeline + topo.MeshLatency)},
		{Name: "router (R)", NS: routerNS},
		{Name: "mesh channel to endpoint", NS: ns(topo.MeshLatency)},
		{Name: "sync + handler dispatch", NS: ns(float64(cfg.RecvOverhead))},
	}
}

// TotalNS sums a decomposition.
func TotalNS(comps []LatencyComponent) float64 {
	var sum float64
	for _, c := range comps {
		sum += c.NS
	}
	return sum
}

// MeasureDecomposition traces a single nearest-neighbor packet through an
// idle machine and returns the observed stage-by-stage latency — the
// measured counterpart of DecomposeMinLatency's analytic budget.
func MeasureDecomposition(cfg LatencyConfig) ([]LatencyComponent, error) {
	m, _, err := BuildMachine(cfg.Machine)
	if err != nil {
		return nil, err
	}
	tm := m.Topo
	// Nearest neighbor in +Y: the fastest single-router through path.
	src := topo.NodeEp{Node: 0, Ep: tm.Chip.CoreEndpoint(topo.MeshCoord{U: 0, V: 2})}
	dstNode := tm.Shape.NodeID(tm.Shape.Neighbor(tm.Shape.Coord(0), topo.YPos))
	dst := topo.NodeEp{Node: dstNode, Ep: tm.Chip.CoreEndpoint(topo.MeshCoord{U: 0, V: 2})}

	p := m.MakePacket(src, dst,
		route.Choices{Order: topo.DimOrder{topo.DimY, topo.DimX, topo.DimZ}, Slice: 0, Ties: [3]int8{1, 1, 1}},
		route.ClassRequest, 0, 1)
	p.StartTrace()

	done := false
	var trace []packet.TraceEvent
	var injectedAt uint64
	m.Endpoint(dst).OnDeliver = func(dp *packet.Packet, now uint64) bool {
		trace = append(trace, dp.Trace...)
		injectedAt = dp.InjectedAt
		done = true
		return true // retain: the trace slice belongs to the packet
	}
	m.Endpoint(src).Inject(p)
	if err := m.Engine.RunUntil(func() bool { return done }, 1_000_000, 100_000); err != nil {
		return nil, fmt.Errorf("core: decomposition trace: %w", err)
	}
	if err := m.FinishChecks(); err != nil {
		return nil, fmt.Errorf("core: decomposition trace: %w", err)
	}

	out := []LatencyComponent{{Name: "software send", NS: machine.CyclesToNS(float64(cfg.SendOverhead))}}
	prev := injectedAt
	for _, ev := range trace {
		out = append(out, LatencyComponent{
			Name: ev.Stage,
			NS:   machine.CyclesToNS(float64(ev.Cycle - prev)),
		})
		prev = ev.Cycle
	}
	out = append(out, LatencyComponent{Name: "sync + handler dispatch", NS: machine.CyclesToNS(float64(cfg.RecvOverhead))})
	return out, nil
}

// The latency family (Figure 11). Axes: Shape. One job measures the whole
// hop sweep with the calibrated default overheads.
func init() {
	register(&Family{
		Name:   "latency",
		Figure: "fig11",
		Title:  "Figure 11: one-way latency vs hops",
		Paper:  "80.7 ns fixed + 39.1 ns/hop; minimum 99 ns",
		// 4x4x4 keeps the run in seconds; the fit quality does not depend on
		// the maximum hop count (the paper's 8x8x8 reaches 12 hops).
		Full:   []Axes{{Shape: topo.Shape3(4, 4, 4)}},
		Quick:  []Axes{{Shape: topo.Shape3(4, 4, 2)}},
		Check:  checkShape,
		Points: func(Axes) (int, string) { return 1, "shape" },
		Spec:   func(a Axes) *exp.Spec { return exp.NewSpec("serve-latency").Add("shape", a.Shape) },
		Jobs: func(a Axes, mutate func(*machine.Config)) []exp.Job {
			cfg := DefaultLatencyConfig(a.Shape)
			mutate(&cfg.Machine)
			return []exp.Job{LatencyJob(cfg)}
		},
		Render: func(w io.Writer, panels []Axes, rs []exp.Result) {
			if rs[0].Err != nil {
				return
			}
			res := rs[0].Value.(LatencyResult)
			fmt.Fprintf(w, "measured: %.1f ns fixed + %.1f ns/hop (r2=%.4f); minimum %.1f ns on %v\n",
				res.InterceptNS, res.SlopeNS, res.R2, res.MinNS, panels[0].Shape)
			for _, p := range res.Points {
				fmt.Fprintf(w, "          hops=%2d  %6.1f ns\n", p.Hops, p.MeanNS)
			}
		},
	})
}
