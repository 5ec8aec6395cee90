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

// maxWalkHops bounds route length defensively: the longest legal route is
// bounded by mesh diameter per turn plus torus hops
// (4 on-chip legs * ~8 + 3 * 8 torus hops * 3 channels each << 256).
const maxWalkHops = 512

// Walk enumerates the complete channel/VC sequence of one unicast route,
// exercising exactly the transition functions the simulator uses. The
// returned hops include the source endpoint-to-router channel, every on-chip
// channel, every torus channel, and the final router-to-endpoint channel.
func Walk(cfg *Config, src, dst topo.NodeEp, ord topo.DimOrder, slice uint8, ties [topo.NumDims]int8, class Class) []Hop {
	m := cfg.Machine
	chip := m.Chip
	st := Init(cfg, src, dst, ord, slice, ties, class)

	hops := make([]Hop, 0, 24)
	node := src.Node
	ep := &chip.Endpoints[src.Ep]
	hops = append(hops, Hop{Chan: m.IntraChanID(node, ep.ToRouter), VC: st.MVC})
	rc := ep.Router

	for len(hops) < maxWalkHops {
		port, vc := RouterNext(cfg, &st, dst, rc)
		p := &chip.RouterAt(rc).Ports[port]
		hops = append(hops, Hop{Chan: m.IntraChanID(node, p.OutChan), VC: vc})
		switch p.Kind {
		case topo.PortEndpoint:
			if p.Endpoint != dst.Ep || node != dst.Node {
				panic(fmt.Sprintf("route: delivered to n%d.E%d, want %v", node, p.Endpoint, dst))
			}
			return hops
		case topo.PortMesh, topo.PortSkip:
			rc = p.Peer
		case topo.PortAdapter:
			tvc := AdapterEgress(cfg, &st, m.Shape.Coord(node))
			hops = append(hops, Hop{Chan: m.TorusChanID(node, st.Dir, int(st.Slice)), VC: tvc})
			nextNode, inAd := m.TorusDest(node, st.Dir, int(st.Slice))
			node = nextNode
			ivc := AdapterIngress(cfg, &st, dst, node)
			in := chip.AdapterAt(inAd)
			hops = append(hops, Hop{Chan: m.IntraChanID(node, in.ToRouter), VC: ivc})
			rc = in.Router
		}
	}
	panic(fmt.Sprintf("route: walk %v->%v exceeded %d hops", src, dst, maxWalkHops))
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
