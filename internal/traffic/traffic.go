// Package traffic defines the synthetic traffic patterns of the paper's
// measurement section: uniform random, n-hop neighbor locality [2], tornado
// and reverse tornado [25], plus generic permutations, and the
// application-shaped bursty wrapper of appshape.go. Every pattern both draws
// destinations online (for the simulator) and enumerates its destination
// distribution (for load computation). The patterns are node-symmetric, and
// Flows always describes node-0 sources.
package traffic

import (
	"fmt"
	"math/rand"

	"anton2/internal/loadcalc"
	"anton2/internal/topo"
)

// Pattern describes a node-symmetric traffic pattern over the machine's
// core endpoints (one per on-chip router, matching the paper's test setup).
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Dest draws a destination for a packet injected at src.
	Dest(m *topo.Machine, src topo.NodeEp, rng *rand.Rand) topo.NodeEp
	// Flows returns the destination distribution of node-0 sources.
	Flows(m *topo.Machine) loadcalc.FlowFunc
}

// Uniform sends each packet to a random core endpoint on a random node
// other than the source's (uniform random traffic with no locality).
type Uniform struct{}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (Uniform) Dest(m *topo.Machine, src topo.NodeEp, rng *rand.Rand) topo.NodeEp {
	n := m.NumNodes()
	dst := rng.Intn(n - 1)
	if dst >= src.Node {
		dst++
	}
	cores := m.Chip.CoreEndpoints()
	return topo.NodeEp{Node: dst, Ep: cores[rng.Intn(len(cores))]}
}

// Flows implements Pattern.
func (Uniform) Flows(m *topo.Machine) loadcalc.FlowFunc {
	n := m.NumNodes()
	cores := m.Chip.CoreEndpoints()
	return func(srcEp int) []loadcalc.Flow {
		out := make([]loadcalc.Flow, 0, (n-1)*len(cores))
		frac := 1.0 / float64((n-1)*len(cores))
		for node := 1; node < n; node++ {
			for _, ep := range cores {
				out = append(out, loadcalc.Flow{Dst: topo.NodeEp{Node: node, Ep: ep}, Frac: frac})
			}
		}
		return out
	}
}

// NHop is n-hop neighbor traffic [2]: each packet travels to a random
// destination node at most N hops away along each dimension of the torus
// (excluding the source node), to a random core endpoint.
type NHop struct{ N int }

// Name implements Pattern.
func (p NHop) Name() string { return fmt.Sprintf("%d-hop", p.N) }

// neighborhood returns the distinct destination nodes within the offset
// cube, excluding the center.
func (p NHop) neighborhood(m *topo.Machine, center topo.NodeCoord) []int {
	seen := map[int]bool{}
	var out []int
	for dx := -p.N; dx <= p.N; dx++ {
		for dy := -p.N; dy <= p.N; dy++ {
			for dz := -p.N; dz <= p.N; dz++ {
				c := m.Shape.Wrap(topo.NodeCoord{X: center.X + dx, Y: center.Y + dy, Z: center.Z + dz})
				id := m.Shape.NodeID(c)
				if c == center || seen[id] {
					continue
				}
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// Dest implements Pattern.
func (p NHop) Dest(m *topo.Machine, src topo.NodeEp, rng *rand.Rand) topo.NodeEp {
	nodes := p.neighborhood(m, m.Shape.Coord(src.Node))
	cores := m.Chip.CoreEndpoints()
	return topo.NodeEp{Node: nodes[rng.Intn(len(nodes))], Ep: cores[rng.Intn(len(cores))]}
}

// Flows implements Pattern.
func (p NHop) Flows(m *topo.Machine) loadcalc.FlowFunc {
	nodes := p.neighborhood(m, m.Shape.Coord(0))
	cores := m.Chip.CoreEndpoints()
	return func(srcEp int) []loadcalc.Flow {
		out := make([]loadcalc.Flow, 0, len(nodes)*len(cores))
		frac := 1.0 / float64(len(nodes)*len(cores))
		for _, node := range nodes {
			for _, ep := range cores {
				out = append(out, loadcalc.Flow{Dst: topo.NodeEp{Node: node, Ep: ep}, Frac: frac})
			}
		}
		return out
	}
}

// Permutation sends all of a core's packets to the same core index on a
// node determined by a coordinate mapping.
type Permutation struct {
	Label string
	Map   func(shape topo.TorusShape, c topo.NodeCoord) topo.NodeCoord
}

// Name implements Pattern.
func (p Permutation) Name() string { return p.Label }

func (p Permutation) dst(m *topo.Machine, src topo.NodeEp) topo.NodeEp {
	c := p.Map(m.Shape, m.Shape.Coord(src.Node))
	return topo.NodeEp{Node: m.Shape.NodeID(m.Shape.Wrap(c)), Ep: src.Ep}
}

// Dest implements Pattern.
func (p Permutation) Dest(m *topo.Machine, src topo.NodeEp, _ *rand.Rand) topo.NodeEp {
	return p.dst(m, src)
}

// Flows implements Pattern.
func (p Permutation) Flows(m *topo.Machine) loadcalc.FlowFunc {
	return func(srcEp int) []loadcalc.Flow {
		return []loadcalc.Flow{{Dst: p.dst(m, topo.NodeEp{Node: 0, Ep: srcEp}), Frac: 1}}
	}
}

// Tornado is the adversarial pattern of Section 4.2: cores on node (x,y,z)
// send to node (x+kx/2-1, y+ky/2-1, z+kz/2-1).
func Tornado() Permutation {
	return Permutation{
		Label: "tornado",
		Map: func(s topo.TorusShape, c topo.NodeCoord) topo.NodeCoord {
			return topo.NodeCoord{
				X: c.X + s.K[0]/2 - 1,
				Y: c.Y + s.K[1]/2 - 1,
				Z: c.Z + s.K[2]/2 - 1,
			}
		},
	}
}

// ReverseTornado is the opposite of Tornado: cores on node (x,y,z) send to
// node (x-kx/2+1, y-ky/2+1, z-kz/2+1).
func ReverseTornado() Permutation {
	return Permutation{
		Label: "reverse-tornado",
		Map: func(s topo.TorusShape, c topo.NodeCoord) topo.NodeCoord {
			return topo.NodeCoord{
				X: c.X - s.K[0]/2 + 1,
				Y: c.Y - s.K[1]/2 + 1,
				Z: c.Z - s.K[2]/2 + 1,
			}
		},
	}
}

// BitComplement sends to the coordinate-wise complement node, a classic
// worst-case-ish benign permutation.
func BitComplement() Permutation {
	return Permutation{
		Label: "bit-complement",
		Map: func(s topo.TorusShape, c topo.NodeCoord) topo.NodeCoord {
			return topo.NodeCoord{X: s.K[0] - 1 - c.X, Y: s.K[1] - 1 - c.Y, Z: s.K[2] - 1 - c.Z}
		},
	}
}

// NearestNeighbor sends to a uniformly random node exactly one hop away
// (the paper's 1-hop neighbor traffic is NHop{1}; this stricter variant
// exercises single-dimension routes only).
type NearestNeighbor struct{}

// Name implements Pattern.
func (NearestNeighbor) Name() string { return "nearest-neighbor" }

func nnNodes(m *topo.Machine, c topo.NodeCoord) []int {
	seen := map[int]bool{}
	var out []int
	for d := topo.Direction(0); d < topo.NumDirections; d++ {
		id := m.Shape.NodeID(m.Shape.Neighbor(c, d))
		if id != m.Shape.NodeID(c) && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Dest implements Pattern.
func (NearestNeighbor) Dest(m *topo.Machine, src topo.NodeEp, rng *rand.Rand) topo.NodeEp {
	nodes := nnNodes(m, m.Shape.Coord(src.Node))
	return topo.NodeEp{Node: nodes[rng.Intn(len(nodes))], Ep: src.Ep}
}

// Flows implements Pattern.
func (NearestNeighbor) Flows(m *topo.Machine) loadcalc.FlowFunc {
	nodes := nnNodes(m, m.Shape.Coord(0))
	return func(srcEp int) []loadcalc.Flow {
		out := make([]loadcalc.Flow, 0, len(nodes))
		for _, n := range nodes {
			out = append(out, loadcalc.Flow{Dst: topo.NodeEp{Node: n, Ep: srcEp}, Frac: 1 / float64(len(nodes))})
		}
		return out
	}
}

// named are the patterns selectable by name on command lines and in served
// requests, in listing order.
var named = []Pattern{
	Uniform{}, NHop{N: 1}, NHop{N: 2}, Tornado(), ReverseTornado(), BitComplement(), NearestNeighbor{},
}

// Names lists every pattern name ByName resolves.
func Names() []string {
	out := make([]string, len(named))
	for i, p := range named {
		out[i] = p.Name()
	}
	return out
}

// ByName resolves a pattern by its Name.
func ByName(name string) (Pattern, bool) {
	for _, p := range named {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}
