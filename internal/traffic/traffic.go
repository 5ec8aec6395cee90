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
	"sync"
	"sync/atomic"

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
	return topo.NodeEp{Node: dst, Ep: randomCore(m, rng)}
}

// randomCore draws one of the machine's core endpoints, reading the chip's
// table in place.
func randomCore(m *topo.Machine, rng *rand.Rand) int {
	return m.Chip.CoreEndpoint(topo.RouterCoord(rng.Intn(topo.NumRouters)))
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
// cube, excluding the center, in the order of offsets.
func (p NHop) neighborhood(m *topo.Machine, center topo.NodeCoord) []int {
	offs := p.offsets(m.Shape)
	out := make([]int, len(offs))
	for i, d := range offs {
		out[i] = shifted(m.Shape, center, d)
	}
	return out
}

// shifted is the node at offset d from center.
func shifted(s topo.TorusShape, center, d topo.NodeCoord) int {
	return s.NodeID(s.Wrap(topo.NodeCoord{X: center.X + d.X, Y: center.Y + d.Y, Z: center.Z + d.Z}))
}

// offsets returns the offsets of the cube |d| <= N, each wrapped into the
// shape, that reach distinct nodes other than the center: the first of every
// set of offsets that alias on the torus, in dx, dy, dz order. Whether two
// offsets alias does not depend on the center, so every center's
// neighborhood lists its nodes in this one order.
func (p NHop) offsets(s topo.TorusShape) []topo.NodeCoord {
	key := nhopKey{p.N, s}
	if c := nhopCache.Load(); c != nil {
		if offs, ok := (*c)[key]; ok {
			return offs
		}
	}
	nhopMu.Lock()
	defer nhopMu.Unlock()
	next := map[nhopKey][]topo.NodeCoord{}
	if c := nhopCache.Load(); c != nil {
		if offs, ok := (*c)[key]; ok {
			return offs
		}
		for k, v := range *c {
			next[k] = v
		}
	}
	seen := map[topo.NodeCoord]bool{{}: true}
	var offs []topo.NodeCoord
	for dx := -p.N; dx <= p.N; dx++ {
		for dy := -p.N; dy <= p.N; dy++ {
			for dz := -p.N; dz <= p.N; dz++ {
				d := s.Wrap(topo.NodeCoord{X: dx, Y: dy, Z: dz})
				if !seen[d] {
					seen[d] = true
					offs = append(offs, d)
				}
			}
		}
	}
	next[key] = offs
	nhopCache.Store(&next)
	return offs
}

type nhopKey struct {
	n     int
	shape topo.TorusShape
}

// nhopCache holds the offsets of every (N, shape) drawn from so far. A miss
// replaces the whole map under nhopMu, so a draw reads it without a lock and
// without allocating.
var (
	nhopMu    sync.Mutex
	nhopCache atomic.Pointer[map[nhopKey][]topo.NodeCoord]
)

// Dest implements Pattern.
func (p NHop) Dest(m *topo.Machine, src topo.NodeEp, rng *rand.Rand) topo.NodeEp {
	offs := p.offsets(m.Shape)
	node := shifted(m.Shape, m.Shape.Coord(src.Node), offs[rng.Intn(len(offs))])
	return topo.NodeEp{Node: node, Ep: randomCore(m, rng)}
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

// nearestNeighbor sends to a uniformly random node exactly one hop away
// (the paper's 1-hop neighbor traffic is NHop{1}; this stricter variant
// exercises single-dimension routes only).
type nearestNeighbor struct{}

// Name implements Pattern.
func (nearestNeighbor) Name() string { return "nearest-neighbor" }

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
func (nearestNeighbor) Dest(m *topo.Machine, src topo.NodeEp, rng *rand.Rand) topo.NodeEp {
	nodes := nnNodes(m, m.Shape.Coord(src.Node))
	return topo.NodeEp{Node: nodes[rng.Intn(len(nodes))], Ep: src.Ep}
}

// Flows implements Pattern.
func (nearestNeighbor) Flows(m *topo.Machine) loadcalc.FlowFunc {
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
	Uniform{}, NHop{N: 1}, NHop{N: 2}, Tornado(), ReverseTornado(), BitComplement(), nearestNeighbor{},
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
