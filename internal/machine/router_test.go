package machine

import (
	"fmt"
	"testing"

	"anton2/internal/arbiter"
	"anton2/internal/loadcalc"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// converge sets up two saturated single-node flows from different source
// endpoints to one destination endpoint, so they merge at the destination
// router's endpoint-port output arbiter, and returns the delivered counts
// per source after a fixed window.
func converge(t *testing.T, kind arbiter.Kind, ws *loadcalc.WeightSet, window uint64) (a, b uint64) {
	t.Helper()
	cfg := DefaultConfig(topo.Shape3(1, 1, 1))
	cfg.Arbiter = kind
	cfg.Weights = ws
	m := MustNew(cfg)
	chip := m.Topo.Chip

	// Destination: the core endpoint at an interior router; sources: the
	// cores at two routers equidistant from it.
	dstEp := chip.CoreEndpoint(topo.MeshCoord{U: 1, V: 1})
	srcA := topo.NodeEp{Node: 0, Ep: chip.CoreEndpoint(topo.MeshCoord{U: 0, V: 1})}
	srcB := topo.NodeEp{Node: 0, Ep: chip.CoreEndpoint(topo.MeshCoord{U: 2, V: 1})}
	dst := topo.NodeEp{Node: 0, Ep: dstEp}

	counts := map[int]uint64{}
	m.Endpoint(dst).OnDeliver = func(p *packet.Packet, now uint64) bool {
		counts[p.Src.Ep]++
		return false
	}
	for _, src := range []topo.NodeEp{srcA, srcB} {
		src := src
		m.Endpoint(src).Source = func() *packet.Packet {
			return m.MakePacket(src, dst, route.Choices{Order: topo.AllDimOrders[0], Ties: [3]int8{1, 1, 1}},
				route.ClassRequest, 0, 1)
		}
	}
	m.Engine.Run(window)
	return counts[srcA.Ep], counts[srcB.Ep]
}

// TestRouterOutputRoundRobinFair: with locally fair arbitration, two
// saturated flows merging at one output each get half the bandwidth.
func TestRouterOutputRoundRobinFair(t *testing.T) {
	a, b := converge(t, arbiter.KindRoundRobin, nil, 4000)
	if a == 0 || b == 0 {
		t.Fatalf("flows stalled: %d vs %d", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("round-robin merge ratio = %.3f (%d vs %d), want ~1", ratio, a, b)
	}
}

// TestRouterOutputWeightedRatio: programming the destination router's
// endpoint-port arbiter with 2:1 loads makes service proportional to load —
// equality of service as in Figure 5, realized inside the full router.
func TestRouterOutputWeightedRatio(t *testing.T) {
	// Build a weight set that is uniform everywhere except the
	// destination router's endpoint output, where input loads are 2:1.
	chip := topo.DefaultChip()
	dstRouter := topo.MeshCoord{U: 1, V: 1}
	ri := topo.RouterID(dstRouter)
	dstEp := chip.CoreEndpoint(dstRouter)
	outPort := chip.RouterAt(dstRouter).EndpointPort(dstEp)
	// Source A arrives from U- (the port toward R0,1); source B from U+.
	inA := chip.RouterAt(dstRouter).MeshPort(topo.UNeg)
	inB := chip.RouterAt(dstRouter).MeshPort(topo.UPos)

	ws := &loadcalc.WeightSet{}
	maxVC := route.MaxTotalVCs(route.AntonScheme{})
	fill := func(rows *[topo.NumRouters][topo.MaxRouterPorts][][arbiter.NumPatterns]uint32, k int) {
		for r := 0; r < topo.NumRouters; r++ {
			for p := 0; p < topo.MaxRouterPorts; p++ {
				rows[r][p] = arbiter.UniformWeights(k)
			}
		}
	}
	fill(&ws.SA2, topo.MaxRouterPorts)
	fill(&ws.SA1, maxVC)
	for a := 0; a < topo.NumChannelAdapters; a++ {
		ws.AdEg[a] = arbiter.UniformWeights(maxVC)
		ws.AdIn[a] = arbiter.UniformWeights(maxVC)
	}
	// Inverse weights: load 2 -> weight w, load 1 -> weight 2w.
	ws.SA2[ri][outPort] = arbiter.UniformWeights(topo.MaxRouterPorts)
	ws.SA2[ri][outPort][inA] = [arbiter.NumPatterns]uint32{5, 5}   // load 2
	ws.SA2[ri][outPort][inB] = [arbiter.NumPatterns]uint32{10, 10} // load 1

	a, b := converge(t, arbiter.KindInverseWeighted, ws, 6000)
	if a == 0 || b == 0 {
		t.Fatalf("flows stalled: %d vs %d", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("weighted merge ratio = %.3f (%d vs %d), want ~2 (service proportional to load)", ratio, a, b)
	}
}

// TestRouterPortLimit: construction respects the six-port budget on every
// router of every machine size.
func TestRouterPortLimit(t *testing.T) {
	m := MustNew(DefaultConfig(topo.Shape3(2, 2, 2)))
	for n := 0; n < m.Topo.NumNodes(); n++ {
		for ri := 0; ri < topo.NumRouters; ri++ {
			r := m.nodes[n].Routers[ri]
			if len(r.ports) > topo.MaxRouterPorts {
				t.Fatalf("router %s has %d ports", fmt.Sprint(topo.RouterCoord(ri)), len(r.ports))
			}
		}
	}
}
