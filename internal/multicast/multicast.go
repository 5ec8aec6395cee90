// Package multicast implements the table-based inter-node multicast of
// Section 2.3: a destination set is compiled into a dimension-order tree
// whose root-to-leaf paths are each valid unicast routes (preserving the
// deadlock guarantees), sharing torus hops along common prefixes. In MD
// simulations this pattern broadcasts a particle position to the endpoints
// of neighboring nodes; alternating between complementary dimension orders
// balances load across the torus channels (Figure 3).
package multicast

import (
	"fmt"
	"sort"

	"anton2/internal/topo"
)

// Edge is one directed torus hop of a multicast tree.
type Edge struct {
	From topo.NodeCoord
	Dir  topo.Direction
}

// Tree is a compiled multicast route for one destination set.
type Tree struct {
	Root  topo.NodeCoord
	Order topo.DimOrder
	Slice int
	// Forward maps each node in the tree to the directions it forwards
	// copies along.
	Forward map[topo.NodeCoord][]topo.Direction
	// Deliver maps nodes to the destination endpoints written locally.
	Deliver map[topo.NodeCoord][]int
	edges   int
}

// Build compiles a destination set into a dimension-order multicast tree.
// Every root-to-leaf path follows the given dimension order along minimal
// routes (positive tie-break), so each path is a valid unicast route.
func Build(shape topo.TorusShape, root topo.NodeCoord, dests []topo.NodeEp, order topo.DimOrder, slice int) *Tree {
	if !order.Valid() {
		panic("multicast: invalid dimension order")
	}
	t := &Tree{
		Root:    root,
		Order:   order,
		Slice:   slice,
		Forward: map[topo.NodeCoord][]topo.Direction{},
		Deliver: map[topo.NodeCoord][]int{},
	}
	seen := map[Edge]bool{}
	for _, d := range dests {
		dc := shape.Coord(d.Node)
		cur := root
		for _, dim := range order {
			delta, _ := shape.MinimalDelta(cur, dc, dim)
			if delta == 0 {
				continue
			}
			dir := topo.DirectionOf(dim, sgn(delta))
			n := delta
			if n < 0 {
				n = -n
			}
			for i := 0; i < n; i++ {
				e := Edge{From: cur, Dir: dir}
				if !seen[e] {
					seen[e] = true
					t.Forward[cur] = append(t.Forward[cur], dir)
					t.edges++
				}
				cur = shape.Neighbor(cur, dir)
			}
		}
		if cur != dc {
			panic(fmt.Sprintf("multicast: route to %v ended at %v", dc, cur))
		}
		t.Deliver[dc] = append(t.Deliver[dc], d.Ep)
	}
	for _, dirs := range t.Forward {
		sort.Slice(dirs, func(i, j int) bool { return dirs[i] < dirs[j] })
	}
	return t
}

// TorusHops returns the tree's inter-node bandwidth cost: the number of
// distinct torus hops carrying a copy of the packet.
func (t *Tree) TorusHops() int { return t.edges }

// TorusLinks returns the sorted global channel ids of every torus link the
// tree forwards copies along (all hops ride the tree's slice).
func (t *Tree) TorusLinks(m *topo.Machine) []int {
	var out []int
	for from, dirs := range t.Forward {
		node := m.Shape.NodeID(from)
		for _, d := range dirs {
			out = append(out, m.TorusChanID(node, d, t.Slice))
		}
	}
	sort.Ints(out)
	return out
}

// UsesAny reports whether the tree forwards along any link in failed.
func (t *Tree) UsesAny(m *topo.Machine, failed map[int]bool) bool {
	if len(failed) == 0 {
		return false
	}
	for from, dirs := range t.Forward {
		node := m.Shape.NodeID(from)
		for _, d := range dirs {
			if failed[m.TorusChanID(node, d, t.Slice)] {
				return true
			}
		}
	}
	return false
}

// BuildAvoiding compiles a multicast tree that forwards along no link in
// failed, preferring the given order and slice. Candidates are tried in
// deterministic order: the preferred (order, slice), the preferred order on
// the other slices, then every (order, slice) combination. A single failed
// link is always avoidable (the parallel slice carries the same hop). ok is
// false when every candidate tree touches a failed link.
func BuildAvoiding(m *topo.Machine, root topo.NodeCoord, dests []topo.NodeEp, order topo.DimOrder, slice int, failed map[int]bool) (t *Tree, ok bool) {
	try := func(ord topo.DimOrder, s int) *Tree {
		tr := Build(m.Shape, root, dests, ord, s)
		if tr.UsesAny(m, failed) {
			return nil
		}
		return tr
	}
	for ds := 0; ds < topo.NumSlices; ds++ {
		if tr := try(order, (slice+ds)%topo.NumSlices); tr != nil {
			return tr, true
		}
	}
	for _, ord := range topo.AllDimOrders {
		for s := 0; s < topo.NumSlices; s++ {
			if tr := try(ord, s); tr != nil {
				return tr, true
			}
		}
	}
	return Build(m.Shape, root, dests, order, slice), false
}

// UnicastHops returns the bandwidth cost of reaching the same destinations
// with individual unicasts: the sum of minimal hop distances (endpoint
// copies on the same node share one unicast in the best case, so distinct
// destination nodes are counted once — matching the paper's comparison of
// torus-hop bandwidth).
func UnicastHops(shape topo.TorusShape, root topo.NodeCoord, dests []topo.NodeEp) int {
	seen := map[int]bool{}
	total := 0
	for _, d := range dests {
		if seen[d.Node] {
			// A second endpoint on an already-counted node would in
			// fact need its own unicast; count it too, as the paper
			// notes the savings multiply with per-node copies.
			total += shape.HopDistance(root, shape.Coord(d.Node))
			continue
		}
		seen[d.Node] = true
		total += shape.HopDistance(root, shape.Coord(d.Node))
	}
	return total
}

// ChannelLoads accumulates per-(node, direction) load over a set of trees,
// for studying the Figure 3 load-balancing effect of alternating orders.
func ChannelLoads(shape topo.TorusShape, trees []*Tree) map[Edge]int {
	out := map[Edge]int{}
	for _, t := range trees {
		for from, dirs := range t.Forward {
			for _, d := range dirs {
				out[Edge{From: from, Dir: d}]++
			}
		}
	}
	return out
}

// MaxLoad returns the heaviest per-channel load in a load map.
func MaxLoad(loads map[Edge]int) int {
	max := 0
	for _, v := range loads {
		if v > max {
			max = v
		}
	}
	return max
}

// Entry lists one node's multicast actions for a group: torus directions to
// forward copies along and local endpoints to deliver to. This is the
// in-hardware table format held by the endpoint and channel adapters
// (Table 2's "Multicast" area).
type Entry struct {
	Forward []topo.Direction
	Deliver []int
}

// Compiled is a multicast group's routing table, loaded into a machine at
// initialization (destination sets stay constant for a whole simulation).
type Compiled struct {
	Order   topo.DimOrder
	Slice   uint8
	Entries map[int]Entry // dense node id -> actions
}

// Compile flattens a tree into the per-node table form.
func (t *Tree) Compile(shape topo.TorusShape) *Compiled {
	c := &Compiled{
		Order:   t.Order,
		Slice:   uint8(t.Slice),
		Entries: map[int]Entry{},
	}
	touch := func(n topo.NodeCoord) Entry { return c.Entries[shape.NodeID(n)] }
	for n, dirs := range t.Forward {
		e := touch(n)
		e.Forward = append(e.Forward, dirs...)
		c.Entries[shape.NodeID(n)] = e
	}
	for n, eps := range t.Deliver {
		e := touch(n)
		e.Deliver = append(e.Deliver, eps...)
		c.Entries[shape.NodeID(n)] = e
	}
	return c
}

// DimIndex returns a dimension's position in the tree's order.
func (c *Compiled) DimIndex(d topo.Dim) uint8 {
	for i, dim := range c.Order {
		if dim == d {
			return uint8(i)
		}
	}
	panic("multicast: dimension not in order")
}

// TotalDeliveries counts the endpoint copies the group produces.
func (c *Compiled) TotalDeliveries() int {
	total := 0
	for _, e := range c.Entries {
		total += len(e.Deliver)
	}
	return total
}

// PlaneNeighborhood builds the Figure 3 style destination set: the nodes of
// a (2r+1)x(2r+1) plane patch around the root in the given two dimensions,
// excluding the root itself, each receiving one endpoint copy.
func PlaneNeighborhood(shape topo.TorusShape, root topo.NodeCoord, dimA, dimB topo.Dim, r int, ep int) []topo.NodeEp {
	var out []topo.NodeEp
	for da := -r; da <= r; da++ {
		for db := -r; db <= r; db++ {
			if da == 0 && db == 0 {
				continue
			}
			c := root
			c = c.With(dimA, c.Get(dimA)+da)
			c = c.With(dimB, c.Get(dimB)+db)
			c = shape.Wrap(c)
			out = append(out, topo.NodeEp{Node: shape.NodeID(c), Ep: ep})
		}
	}
	return out
}

func sgn(x int) int {
	if x < 0 {
		return -1
	}
	return 1
}
