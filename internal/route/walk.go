package route

import (
	"fmt"
	"math/rand"

	"anton2/internal/topo"
)

// Hop is one channel traversal of a complete route.
type Hop struct {
	Chan int   // global channel id (see topo.Machine)
	VC   uint8 // scheme VC used on the channel (within the packet's class)
}

// maxWalkHops bounds a walk's router traversals defensively: the longest
// legal route is bounded by mesh diameter per turn plus torus hops
// (4 on-chip legs * ~8 + 3 * 8 torus hops * 3 routers each << 256).
const maxWalkHops = 512

// Walk enumerates the complete channel/VC sequence of one unicast route,
// exercising exactly the transition functions the simulator uses. The
// returned hops include the source endpoint-to-router channel, every on-chip
// channel, every torus channel, and the final router-to-endpoint channel.
func Walk(cfg *Config, src, dst topo.NodeEp, ord topo.DimOrder, slice uint8, ties [topo.NumDims]int8, class Class) []Hop {
	m := cfg.Machine
	st, at := Start(cfg, src, dst, ord, slice, ties, class)
	hops := append(make([]Hop, 0, 24), Hop{Chan: m.IntraChanID(at.Node, at.In), VC: at.VC})
	for {
		s := Traverse(cfg, &st, dst, at, -1)
		hops = append(hops, Hop{Chan: m.IntraChanID(at.Node, s.Out.OutChan), VC: s.VC})
		switch s.Out.Kind {
		case topo.PortEndpoint:
			if s.Out.Endpoint != dst.Ep || at.Node != dst.Node {
				panic(fmt.Sprintf("route: delivered to n%d.E%d, want %v", at.Node, s.Out.Endpoint, dst))
			}
			return hops
		case topo.PortAdapter:
			hops = append(hops, Hop{Chan: m.TorusChanID(at.Node, s.Out.Adapter.Dir, s.Out.Adapter.Slice), VC: s.Next.VC},
				Hop{Chan: m.IntraChanID(s.Next.Node, s.Next.In), VC: s.Next.VC})
		}
		at = s.Next
	}
}

// Leg is where a walk resumes: the packet has just entered router Router of
// node Node over chip channel In at VC VC.
type Leg struct {
	Node   int
	Router topo.MeshCoord
	In     int
	VC     uint8
	hops   int // router traversals taken so far, against maxWalkHops
}

// Step is one router traversal taken by Traverse.
type Step struct {
	Port int        // the output port taken at the leg's router
	Out  *topo.Port // that port; at an adapter port Out.Adapter is the egress adapter
	VC   uint8      // the VC on Out's channel
	// Next is where the walk resumes: the peer router after a mesh or skip
	// hop, the ingress adapter's router after a torus hop, entered at the
	// torus VC. After a torus hop that arrives at node stop only Next.Node
	// is set.
	Next Leg
}

// Start initializes a route as Init does and returns the leg it starts on:
// the source endpoint's channel into its router.
func Start(cfg *Config, src, dst topo.NodeEp, ord topo.DimOrder, slice uint8, ties [topo.NumDims]int8, class Class) (State, Leg) {
	st := Init(cfg, src, dst, ord, slice, ties, class)
	ep := &cfg.Machine.Chip.Endpoints[src.Ep]
	return st, Leg{Node: src.Node, Router: ep.Router, In: ep.ToRouter, VC: st.MVC}
}

// Traverse takes one router traversal from at: route computation at its
// router and, at an adapter port, the torus hop (AdapterEgress, TorusDest)
// and the ingress at the next node (Ingress), unless that node is stop. A
// walk resumed from a stop continues with Ingress.
func Traverse(cfg *Config, st *State, dst topo.NodeEp, at Leg, stop int) Step {
	if at.hops >= maxWalkHops {
		panic(fmt.Sprintf("route: walk to %v exceeded %d router hops", dst, maxWalkHops))
	}
	m := cfg.Machine
	port, vc := RouterNext(cfg, st, dst, at.Router)
	p := &m.Chip.RouterAt(at.Router).Ports[port]
	next := Leg{Node: at.Node, Router: p.Peer, In: p.OutChan, VC: vc}
	if p.Kind == topo.PortAdapter {
		AdapterEgress(cfg, st, m.Shape.Coord(at.Node))
		node, _ := m.TorusDest(at.Node, st.Dir, int(st.Slice))
		next = Leg{Node: node}
		if node != stop {
			next = Ingress(cfg, st, dst, node)
		}
	}
	next.hops = at.hops + 1
	return Step{Port: port, Out: p, VC: vc, Next: next}
}

// Ingress applies a torus arrival at node (AdapterIngress) and returns the
// leg it starts: the ingress adapter's channel into its router.
func Ingress(cfg *Config, st *State, dst topo.NodeEp, node int) Leg {
	ad := st.EgressAdapter()
	in := cfg.Machine.Chip.AdapterAt(topo.AdapterID{Dir: ad.Dir.Opposite(), Slice: ad.Slice})
	vc := AdapterIngress(cfg, st, dst, node)
	return Leg{Node: node, Router: in.Router, In: in.ToRouter, VC: vc}
}

// Choices bundles the per-packet randomized routing decisions of
// Section 2.3: the dimension order, the torus slice, and the tie-break signs
// for dimensions where both directions are minimal.
type Choices struct {
	Order topo.DimOrder
	Slice uint8
	Ties  [topo.NumDims]int8
}

// RandomChoices draws uniformly randomized routing choices, as Anton 2 does
// for typical unicast packets.
func RandomChoices(rng *rand.Rand) Choices {
	var c Choices
	c.Order = topo.AllDimOrders[rng.Intn(len(topo.AllDimOrders))]
	c.Slice = uint8(rng.Intn(topo.NumSlices))
	for d := range c.Ties {
		if rng.Intn(2) == 0 {
			c.Ties[d] = 1
		} else {
			c.Ties[d] = -1
		}
	}
	return c
}

// tieDims returns the dimensions in which the minimal route from a to b has
// two minimal directions (distance exactly k/2 on an even ring).
func tieDims(shape topo.TorusShape, a, b topo.NodeCoord) []topo.Dim {
	var out []topo.Dim
	for d := topo.Dim(0); d < topo.NumDims; d++ {
		if _, tie := shape.MinimalDelta(a, b, d); tie {
			out = append(out, d)
		}
	}
	return out
}

// WeightedChoice is one element of an exhaustive route-choice enumeration.
type WeightedChoice struct {
	Choices
	Weight float64 // probability of this choice under uniform randomization
}

// enumerateChoices lists every distinct routing choice for a source and
// destination node pair with its probability, enumerating tie-break signs
// only for dimensions where a tie actually occurs. The weights sum to 1.
func enumerateChoices(shape topo.TorusShape, a, b topo.NodeCoord) []WeightedChoice {
	tieDims := tieDims(shape, a, b)
	nTie := len(tieDims)
	total := len(topo.AllDimOrders) * topo.NumSlices * (1 << nTie)
	out := make([]WeightedChoice, 0, total)
	w := 1.0 / float64(total)
	for _, ord := range topo.AllDimOrders {
		for s := 0; s < topo.NumSlices; s++ {
			for mask := 0; mask < 1<<nTie; mask++ {
				c := Choices{Order: ord, Slice: uint8(s), Ties: [topo.NumDims]int8{1, 1, 1}}
				for i, d := range tieDims {
					if mask&(1<<i) != 0 {
						c.Ties[d] = -1
					}
				}
				out = append(out, WeightedChoice{Choices: c, Weight: w})
			}
		}
	}
	return out
}
