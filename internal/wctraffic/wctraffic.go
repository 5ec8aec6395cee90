// Package wctraffic reproduces the Section 2.4 design analysis: evaluating
// candidate direction-order on-chip routing algorithms against the
// worst-case inter-node switching demands. Following Towles & Dally [27],
// the worst case over all admissible demands is attained at an extreme point
// of the demand polytope, and extreme points are permutation traffic
// patterns — so an exact search enumerates permutations of the six torus
// directions (the two slices are assumed load-balanced; the tests cross-check
// the search with a maximum-weight assignment solver, the scalable
// alternative).
package wctraffic

import (
	"fmt"
	"math"

	"anton2/internal/route"
	"anton2/internal/topo"
)

// paths holds, per demand (In, Out), the chip channels its traffic crosses
// on both slices. A demand is a unit of switching between two external
// channels of one ASIC: traffic arriving on the channel labeled In departs on
// the channel labeled Out. By the paper's channel-naming convention, traffic
// arriving on channel d travels in direction opposite(d), so a packet
// continuing through the node in one dimension has Out == opposite(In), and
// Out == In would be a non-minimal U-turn (excluded from the demand space).
type paths [topo.NumDirections][topo.NumDirections][]int

// demandPaths walks each demand as a route.Walk from one torus hop before the
// middle node of cfg's machine (every ring at least 5 long, so the route is
// minimal) to one hop past it, and keeps the middle node's chip channels.
func demandPaths(cfg *route.Config) *paths {
	m, k := cfg.Machine, cfg.Machine.Shape.K
	if min(k[0], k[1], k[2]) < 5 {
		panic(fmt.Sprintf("wctraffic: %v has a ring shorter than 5", m.Shape))
	}
	mid := topo.NodeCoord{X: k[0] / 2, Y: k[1] / 2, Z: k[2] / 2}
	lo := m.IntraChanID(m.Shape.NodeID(mid), 0)
	var p paths
	for in := range topo.Direction(topo.NumDirections) {
		for out := range topo.Direction(topo.NumDirections) {
			if out == in {
				continue
			}
			// Travel In's dimension first, then Out's, then the one left.
			a, b := in.Dim(), out.Dim()
			if a == b {
				b = (a + 1) % topo.NumDims
			}
			ord := topo.DimOrder{a, b, topo.NumDims - a - b}
			src := topo.NodeEp{Node: m.Shape.NodeID(m.Shape.Neighbor(mid, in))}
			dst := topo.NodeEp{Node: m.Shape.NodeID(m.Shape.Neighbor(mid, out))}
			for s := range uint8(topo.NumSlices) {
				for _, h := range route.Walk(cfg, src, dst, ord, s, [topo.NumDims]int8{1, 1, 1}, route.ClassRequest) {
					if ch := h.Chan - lo; ch >= 0 && ch < m.NumIntraChans() {
						p[in][out] = append(p[in][out], ch)
					}
				}
			}
		}
	}
	return &p
}

// loads accumulates per-chip-channel load for a full permutation demand on
// both slices (each slice carries the same permutation, per the paper's
// load-balanced-slices assumption). perm[i] is the Out direction for In
// direction i. Loads are in units of one torus channel's bandwidth.
func (p *paths) loads(nChans int, perm [topo.NumDirections]topo.Direction) []float64 {
	loads := make([]float64, nChans)
	for in, out := range perm {
		for _, ch := range p[in][out] {
			loads[ch]++
		}
	}
	return loads
}

// Loads is the per-chip-channel load of a full permutation demand under cfg
// (see paths.loads).
func Loads(cfg *route.Config, perm [topo.NumDirections]topo.Direction) []float64 {
	return demandPaths(cfg).loads(cfg.Machine.NumIntraChans(), perm)
}

// maxMeshLoad returns the heaviest load over the router-to-router mesh
// channels (the contended resources of Figure 4).
func maxMeshLoad(chip *topo.Chip, loads []float64) float64 {
	best := 0.0
	for i, l := range loads {
		ch := &chip.IntraChans[i]
		if ch.From.Kind != topo.LocRouter || ch.To.Kind != topo.LocRouter {
			continue // adapter/endpoint links carry at most one channel's demand
		}
		if l > best {
			best = l
		}
	}
	return best
}

// Result summarizes the worst-case analysis of one direction order.
type Result struct {
	Order topo.DirOrder
	// WorstLoad is the maximum mesh-channel load over all admissible
	// permutations, in torus-channel bandwidth units.
	WorstLoad float64
	// WorstPerm attains WorstLoad.
	WorstPerm [topo.NumDirections]topo.Direction
}

// permutations enumerates all fixed-point-free permutations of the six
// directions (a U-turn demand In -> In is impossible under minimal routing).
func permutations() [][topo.NumDirections]topo.Direction {
	var out [][topo.NumDirections]topo.Direction
	var perm [topo.NumDirections]topo.Direction
	var used [topo.NumDirections]bool
	var rec func(i int)
	rec = func(i int) {
		if i == topo.NumDirections {
			out = append(out, perm)
			return
		}
		for d := topo.Direction(0); d < topo.NumDirections; d++ {
			if used[d] || int(d) == i {
				continue
			}
			used[d] = true
			perm[i] = d
			rec(i + 1)
			used[d] = false
		}
	}
	rec(0)
	return out
}

// Evaluate computes the worst-case mesh load of cfg's direction order by
// exact enumeration of permutation demands.
func Evaluate(cfg *route.Config) Result {
	chip := cfg.Machine.Chip
	p := demandPaths(cfg)
	res := Result{Order: cfg.DirOrder}
	for _, perm := range permutations() {
		if l := maxMeshLoad(chip, p.loads(len(chip.IntraChans), perm)); l > res.WorstLoad {
			res.WorstLoad, res.WorstPerm = l, perm
		}
	}
	return res
}

// SearchAll evaluates cfg under every direction order and returns results
// sorted as enumerated by topo.AllDirOrders.
func SearchAll(cfg *route.Config) []Result {
	var out []Result
	for _, o := range topo.AllDirOrders() {
		c := *cfg
		c.DirOrder = o
		out = append(out, Evaluate(&c))
	}
	return out
}

// Best returns the direction orders minimizing worst-case load under cfg's
// skip settings, and that minimum.
func Best(cfg *route.Config) ([]Result, float64) {
	all := SearchAll(cfg)
	best := math.Inf(1)
	for _, r := range all {
		best = min(best, r.WorstLoad)
	}
	var winners []Result
	for _, r := range all {
		if r.WorstLoad == best {
			winners = append(winners, r)
		}
	}
	return winners, best
}
