package multicast

import (
	"testing"

	"anton2/internal/topo"
)

func TestTreeReachesAllDestinations(t *testing.T) {
	shape := topo.Shape3(8, 8, 8)
	root := topo.NodeCoord{X: 4, Y: 4, Z: 4}
	dests := PlaneNeighborhood(shape, root, topo.DimX, topo.DimY, 1, 0)
	tree := Build(shape, root, dests, topo.AllDimOrders[0], 0)
	for _, d := range dests {
		if len(tree.Deliver[shape.Coord(d.Node)]) == 0 {
			t.Errorf("destination %v not delivered", shape.Coord(d.Node))
		}
	}
	// Walk the tree from the root and confirm every delivery node is
	// reachable over forward edges.
	reach := map[topo.NodeCoord]bool{root: true}
	frontier := []topo.NodeCoord{root}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, dir := range tree.Forward[cur] {
			next := shape.Neighbor(cur, dir)
			if !reach[next] {
				reach[next] = true
				frontier = append(frontier, next)
			}
		}
	}
	for node := range tree.Deliver {
		if !reach[node] {
			t.Errorf("delivery node %v unreachable from root", node)
		}
	}
}

// TestFigure3Savings reproduces the paper's example magnitude: multicasting
// a particle position to a plane neighborhood saves 12 torus hops versus
// unicasts.
func TestFigure3Savings(t *testing.T) {
	shape := topo.Shape3(8, 8, 8)
	root := topo.NodeCoord{X: 4, Y: 4, Z: 4}
	// A 3x3 plane patch (8 neighbors) like Figure 3's example.
	dests := PlaneNeighborhood(shape, root, topo.DimX, topo.DimY, 1, 0)
	uni := UnicastHops(shape, root, dests)
	tree := Build(shape, root, dests, topo.AllDimOrders[0], 0)
	if uni != 12 {
		t.Errorf("unicast cost = %d hops, want 12 (8 neighbors: 4 at distance 1, 4 at distance 2)", uni)
	}
	saved := uni - tree.TorusHops()
	if saved < 4 {
		t.Errorf("multicast saves %d hops; expected substantial savings", saved)
	}
	t.Logf("unicast %d hops, multicast %d hops, saved %d", uni, tree.TorusHops(), saved)
}

// TestAlternatingOrdersBalanceLoad demonstrates the Figure 3 point:
// alternating between two complementary dimension orders for successive
// packets lowers the maximum per-channel load relative to always using one
// order.
func TestAlternatingOrdersBalanceLoad(t *testing.T) {
	shape := topo.Shape3(8, 8, 8)
	root := topo.NodeCoord{X: 4, Y: 4, Z: 4}
	// An asymmetric (L-shaped) patch, like Figure 3's one-sided set: the
	// trunk edge of a single-order tree concentrates load.
	mk := func(dx, dy int) topo.NodeEp {
		c := shape.Wrap(topo.NodeCoord{X: root.X + dx, Y: root.Y + dy, Z: root.Z})
		return topo.NodeEp{Node: shape.NodeID(c), Ep: 0}
	}
	dests := []topo.NodeEp{mk(1, 1), mk(1, 2), mk(2, 1)}
	xy := Build(shape, root, dests, topo.DimOrder{topo.DimX, topo.DimY, topo.DimZ}, 0)
	yx := Build(shape, root, dests, topo.DimOrder{topo.DimY, topo.DimX, topo.DimZ}, 0)

	same := MaxLoad(ChannelLoads(shape, []*Tree{xy, xy}))
	alternating := MaxLoad(ChannelLoads(shape, []*Tree{xy, yx}))
	if alternating >= same {
		t.Errorf("alternating orders max load %d, single order %d; alternating must balance better", alternating, same)
	}
}

func TestSavingsGrowWithPerNodeCopies(t *testing.T) {
	shape := topo.Shape3(8, 8, 8)
	root := topo.NodeCoord{X: 0, Y: 0, Z: 0}
	single := PlaneNeighborhood(shape, root, topo.DimY, topo.DimZ, 1, 0)
	double := append(append([]topo.NodeEp(nil), single...),
		PlaneNeighborhood(shape, root, topo.DimY, topo.DimZ, 1, 5)...)
	savings := func(dests []topo.NodeEp) int {
		return UnicastHops(shape, root, dests) - Build(shape, root, dests, topo.AllDimOrders[0], 0).TorusHops()
	}
	s1, s2 := savings(single), savings(double)
	if s2 <= s1 {
		t.Errorf("savings with per-node copies %d, single copies %d; should multiply", s2, s1)
	}
}

func TestTreePathsAreMinimal(t *testing.T) {
	shape := topo.Shape3(6, 6, 6)
	root := topo.NodeCoord{X: 1, Y: 2, Z: 3}
	dests := PlaneNeighborhood(shape, root, topo.DimX, topo.DimZ, 2, 1)
	tree := Build(shape, root, dests, topo.AllDimOrders[3], 0)
	// Tree cost is bounded below by the largest single distance and
	// above by the unicast total.
	uni := UnicastHops(shape, root, dests)
	if tree.TorusHops() > uni {
		t.Errorf("tree hops %d exceed unicast total %d", tree.TorusHops(), uni)
	}
	maxDist := 0
	for _, d := range dests {
		if h := shape.HopDistance(root, shape.Coord(d.Node)); h > maxDist {
			maxDist = h
		}
	}
	if tree.TorusHops() < maxDist {
		t.Errorf("tree hops %d below the farthest destination distance %d", tree.TorusHops(), maxDist)
	}
}

func TestCompileRoundTrip(t *testing.T) {
	shape := topo.Shape3(6, 6, 6)
	root := topo.NodeCoord{X: 2, Y: 2, Z: 2}
	dests := PlaneNeighborhood(shape, root, topo.DimY, topo.DimZ, 1, 3)
	tree := Build(shape, root, dests, topo.AllDimOrders[4], 1)
	c := tree.Compile(shape)
	if c.TotalDeliveries() != len(dests) {
		t.Errorf("compiled deliveries %d, want %d", c.TotalDeliveries(), len(dests))
	}
	if c.Slice != 1 || c.Order != topo.AllDimOrders[4] {
		t.Error("compiled metadata lost")
	}
	// Forward edge count matches the tree's torus hops.
	edges := 0
	for _, e := range c.Entries {
		edges += len(e.Forward)
	}
	if edges != tree.TorusHops() {
		t.Errorf("compiled forwards %d != tree hops %d", edges, tree.TorusHops())
	}
	// DimIndex covers all order positions.
	for i, d := range c.Order {
		if c.DimIndex(d) != uint8(i) {
			t.Errorf("DimIndex(%v) = %d, want %d", d, c.DimIndex(d), i)
		}
	}
}
