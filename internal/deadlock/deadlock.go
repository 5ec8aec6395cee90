// Package deadlock statically verifies the deadlock-freedom argument of
// Section 2.5: it enumerates routes with the same transition functions the
// simulator uses, builds the dependency graph between (channel, VC) pairs,
// and searches it for cycles. The Anton VC-promotion scheme and the baseline
// 2n-VC scheme must be acyclic; deliberately broken schemes must not be.
package deadlock

import (
	"fmt"

	"anton2/internal/route"
	"anton2/internal/topo"
)

// graph is a dependency graph over (channel, VC) resources. An edge a->b
// means a packet can occupy a's buffer while requesting b's.
type graph struct {
	cfg    *route.Config
	maxVCs int
	adj    map[int32]map[int32]struct{}
}

// nodeID packs a (channel, vc) resource.
func (g *graph) nodeID(ch int, vc uint8) int32 { return int32(ch*g.maxVCs + int(vc)) }

// resource unpacks a graph node into channel and VC for diagnostics.
func (g *graph) resource(n int32) (ch int, vc int) {
	return int(n) / g.maxVCs, int(n) % g.maxVCs
}

// build enumerates all node pairs with every routing choice the strategy
// admits (dimension order, slice, tie-breaks) and records the channel/VC
// dependencies of each route. Each node pair gets one endpoint pair, rotated
// deterministically so that every endpoint participates across the
// enumeration: the on-chip M-group dependencies depend only on router
// positions, so rotating endpoints across node pairs covers all attachments.
// Restricted-path strategies contribute exactly their restricted choice
// sets, so the graph verified here is the graph the simulator routes in.
func build(cfg *route.Config) *graph {
	g := &graph{
		cfg:    cfg,
		maxVCs: maxSchemeVCs(cfg.Scheme),
		adj:    make(map[int32]map[int32]struct{}),
	}
	m := cfg.Machine
	n := m.NumNodes()
	rot := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			srcEp := rot % topo.NumEndpoints
			dstEp := (rot * 7) % topo.NumEndpoints
			rot++
			src := topo.NodeEp{Node: a, Ep: srcEp}
			dst := topo.NodeEp{Node: b, Ep: dstEp}
			for _, wc := range cfg.Scheme.Enumerate(m.Shape, m.Shape.Coord(a), m.Shape.Coord(b)) {
				g.addRoute(route.Walk(cfg, src, dst, wc.Order, wc.Slice, wc.Ties, route.ClassRequest))
			}
		}
	}
	// Same-node routes between all endpoint pairs exercise every
	// endpoint-channel dependency.
	for ep1 := 0; ep1 < topo.NumEndpoints; ep1++ {
		for ep2 := 0; ep2 < topo.NumEndpoints; ep2++ {
			src := topo.NodeEp{Node: 0, Ep: ep1}
			dst := topo.NodeEp{Node: 0, Ep: ep2}
			c := cfg.Scheme.Choose(cfg, src, dst,
				route.Choices{Order: topo.AllDimOrders[0], Slice: 0, Ties: [3]int8{1, 1, 1}}, route.ClassRequest)
			g.addRoute(route.Walk(cfg, src, dst, c.Order, c.Slice, c.Ties, route.ClassRequest))
		}
	}
	return g
}

func (g *graph) addRoute(hops []route.Hop) {
	m := g.cfg.Machine
	for i := 0; i+1 < len(hops); i++ {
		budget := route.ChannelVCs(g.cfg.Scheme, m.ChanGroup(hops[i].Chan))
		if int(hops[i].VC) >= budget {
			panic(fmt.Sprintf("deadlock: VC %d exceeds budget %d on %s", hops[i].VC, budget, m.ChanName(hops[i].Chan)))
		}
		from := g.nodeID(hops[i].Chan, hops[i].VC)
		to := g.nodeID(hops[i+1].Chan, hops[i+1].VC)
		set, ok := g.adj[from]
		if !ok {
			set = make(map[int32]struct{})
			g.adj[from] = set
		}
		set[to] = struct{}{}
	}
}

// findCycle returns a dependency cycle as a list of (channel, VC) resources,
// or nil if the graph is acyclic. The cycle is reported in traversal order
// with the first node repeated at the end.
func (g *graph) findCycle() []int32 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int32]uint8, len(g.adj))
	parent := make(map[int32]int32)

	var cycleStart, cycleEnd int32
	found := false

	// Iterative DFS to avoid recursion depth issues on large graphs.
	type frame struct {
		node  int32
		succs []int32
		idx   int
	}
	succsOf := func(n int32) []int32 {
		out := make([]int32, 0, len(g.adj[n]))
		for s := range g.adj[n] {
			out = append(out, s)
		}
		return out
	}
	for start := range g.adj {
		if color[start] != white || found {
			continue
		}
		stack := []frame{{node: start, succs: succsOf(start)}}
		color[start] = gray
		for len(stack) > 0 && !found {
			f := &stack[len(stack)-1]
			if f.idx < len(f.succs) {
				next := f.succs[f.idx]
				f.idx++
				switch color[next] {
				case white:
					color[next] = gray
					parent[next] = f.node
					stack = append(stack, frame{node: next, succs: succsOf(next)})
				case gray:
					cycleStart, cycleEnd = next, f.node
					found = true
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	if !found {
		return nil
	}
	cycle := []int32{cycleStart}
	for n := cycleEnd; n != cycleStart; n = parent[n] {
		cycle = append(cycle, n)
	}
	// Reverse into traversal order and close the loop.
	for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	return append(cycle, cycleStart)
}

// describeCycle renders a cycle for diagnostics.
func (g *graph) describeCycle(cycle []int32) string {
	if len(cycle) == 0 {
		return "acyclic"
	}
	s := ""
	for i, n := range cycle {
		ch, vc := g.resource(n)
		if i > 0 {
			s += " -> "
		}
		s += fmt.Sprintf("%s.vc%d", g.cfg.Machine.ChanName(ch), vc)
	}
	return s
}

func maxSchemeVCs(s route.Scheme) int {
	m, t := s.MeshVCs(), s.TorusVCs()
	if t > m {
		return t
	}
	return m
}

// Verify builds the graph and returns an error describing a cycle if one
// exists.
func Verify(cfg *route.Config) error {
	g := build(cfg)
	if cycle := g.findCycle(); cycle != nil {
		return fmt.Errorf("deadlock: scheme %q has cyclic VC dependencies: %s", cfg.Scheme.Name(), g.describeCycle(cycle))
	}
	return nil
}
