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
	"math"

	"anton2/internal/topo"
)

// demand labels a unit switching demand between two external channels of
// one ASIC: traffic arriving on the channel labeled In departs on the
// channel labeled Out. By the paper's channel-naming convention, traffic
// arriving on channel d travels in direction opposite(d), so a packet
// continuing through the node in one dimension has Out == opposite(In), and
// Out == In would be a non-minimal U-turn (excluded from the demand space).
type demand struct {
	In, Out topo.Direction
}

// Policy selects which skip-channel roles the routing algorithm uses:
// Through covers X through-traffic, and Exit lets packets that finished the X
// dimension cross to the other side before their M-group leg. The production
// configuration is both. (Letting packets turning into X cross the far
// corner's skip as well is deadlock-prone in combination with Exit; see
// route.Config.EntrySkip.)
type Policy struct {
	Through, Exit bool
}

// DefaultPolicy matches route.NewConfig: through and exit skips.
var DefaultPolicy = Policy{Through: true, Exit: true}

// pathChannels returns the chip channel ids a demand's traffic traverses on
// the given slice under a direction-order algorithm: ingress adapter link,
// any mesh or skip channels, and the egress adapter link. It mirrors the
// routing policy of internal/route: X-dimension legs enter and exit through
// the nearest corner, crossing the skip channel when the adapter sits on
// the far side of the chip (the cross-check against route.Walk lives in the
// tests).
func pathChannels(chip *topo.Chip, order topo.DirOrder, pol Policy, d demand, slice int) []int {
	in := chip.AdapterAt(topo.AdapterID{Dir: d.In, Slice: slice})
	out := chip.AdapterAt(topo.AdapterID{Dir: d.Out, Slice: slice})
	chans := []int{in.ToRouter}
	rIn, rOut := in.Router, out.Router

	if d.Out == d.In.Opposite() {
		// Through-traffic: single router for Y/Z; skip channel for X.
		if rIn != rOut && pol.Through {
			chans = append(chans, skipChan(chip, rIn, rOut))
			return append(chans, out.FromRouter)
		}
		// Fall through to mesh routing (Y/Z same-router case appends
		// no mesh hops; X without skips crosses the mesh).
		return append(appendMesh(chans, chip, order, rIn, rOut), out.FromRouter)
	}

	// Turning traffic: stay at the ingress corner or first cross its skip,
	// whichever leaves the shorter mesh leg, with strict preference for the
	// path without the skip crossing — identical to route.AdapterIngress.
	landing := rIn
	if pol.Exit {
		if sp, ok := chip.SkipPartner(rIn); ok && meshDist(sp, rOut)+1 < meshDist(rIn, rOut) {
			chans = append(chans, skipChan(chip, rIn, sp))
			landing = sp
		}
	}
	return append(appendMesh(chans, chip, order, landing, rOut), out.FromRouter)
}

func skipChan(chip *topo.Chip, from, to topo.MeshCoord) int {
	r := chip.RouterAt(from)
	sp := r.SkipPort()
	if sp < 0 || r.Ports[sp].Peer != to {
		panic("wctraffic: skip connectivity missing")
	}
	return r.Ports[sp].OutChan
}

func appendMesh(chans []int, chip *topo.Chip, order topo.DirOrder, from, to topo.MeshCoord) []int {
	cur := from
	for _, md := range order.MeshHops(from, to) {
		r := chip.RouterAt(cur)
		pi := r.MeshPort(md)
		chans = append(chans, r.Ports[pi].OutChan)
		cur = r.Ports[pi].Peer
	}
	return chans
}

func meshDist(a, b topo.MeshCoord) int {
	du, dv := a.U-b.U, a.V-b.V
	if du < 0 {
		du = -du
	}
	if dv < 0 {
		dv = -dv
	}
	return du + dv
}

// Loads accumulates per-chip-channel load for a full permutation demand on
// both slices (each slice carries the same permutation, per the paper's
// load-balanced-slices assumption). perm[i] is the Out direction for In
// direction i. Loads are in units of one torus channel's bandwidth.
func Loads(chip *topo.Chip, order topo.DirOrder, pol Policy, perm [topo.NumDirections]topo.Direction) []float64 {
	loads := make([]float64, len(chip.IntraChans))
	for s := 0; s < topo.NumSlices; s++ {
		for in := topo.Direction(0); in < topo.NumDirections; in++ {
			d := demand{In: in, Out: perm[in]}
			for _, ch := range pathChannels(chip, order, pol, d, s) {
				loads[ch]++
			}
		}
	}
	return loads
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

// Evaluate computes the worst-case mesh load of one direction order by
// exact enumeration of permutation demands.
func Evaluate(chip *topo.Chip, order topo.DirOrder, pol Policy) Result {
	res := Result{Order: order}
	for _, perm := range permutations() {
		loads := Loads(chip, order, pol, perm)
		if l := maxMeshLoad(chip, loads); l > res.WorstLoad {
			res.WorstLoad, res.WorstPerm = l, perm
		}
	}
	return res
}

// SearchAll evaluates every direction-order algorithm and returns results
// sorted as enumerated by topo.AllDirOrders.
func SearchAll(chip *topo.Chip, pol Policy) []Result {
	orders := topo.AllDirOrders()
	out := make([]Result, len(orders))
	for i, o := range orders {
		out[i] = Evaluate(chip, o, pol)
	}
	return out
}

// Best returns the direction orders minimizing worst-case load, and that
// minimum.
func Best(chip *topo.Chip, pol Policy) ([]Result, float64) {
	all := SearchAll(chip, pol)
	best := math.Inf(1)
	for _, r := range all {
		if r.WorstLoad < best {
			best = r.WorstLoad
		}
	}
	var winners []Result
	for _, r := range all {
		if r.WorstLoad == best {
			winners = append(winners, r)
		}
	}
	return winners, best
}
