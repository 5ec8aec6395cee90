// mdbroadcast reproduces the motivating workload of the paper's multicast
// support (Section 2.3, Figure 3): in a molecular dynamics simulation, each
// particle's position is broadcast to the endpoints of neighboring nodes
// every timestep. Table-based multicast shares torus hops along a
// dimension-order tree; alternating between complementary dimension orders
// balances channel load.
package main

import (
	"fmt"

	"anton2/internal/multicast"
	"anton2/internal/topo"
)

func main() {
	shape := topo.Shape3(8, 8, 8)
	root := topo.NodeCoord{X: 4, Y: 4, Z: 4}

	// A particle near a node boundary interacts with a 3x3 plane patch of
	// neighboring nodes (Figure 3's example geometry).
	dests := multicast.PlaneNeighborhood(shape, root, topo.DimX, topo.DimY, 1, 0)

	tree := multicast.Build(shape, root, dests, topo.AllDimOrders[0], 0)
	unicast := multicast.UnicastHops(shape, root, dests)
	fmt.Printf("broadcast from %v to %d neighbor nodes:\n", root, len(dests))
	fmt.Printf("  unicasts:       %d torus hops\n", unicast)
	fmt.Printf("  multicast tree: %d torus hops (saves %d)\n", tree.TorusHops(), unicast-tree.TorusHops())

	// MD destination sets include several endpoints per node to cut
	// retrieval latency; the inter-node savings multiply (Section 2.3).
	multi := append(append([]topo.NodeEp(nil), dests...),
		multicast.PlaneNeighborhood(shape, root, topo.DimX, topo.DimY, 1, 5)...)
	treeMulti := multicast.Build(shape, root, multi, topo.AllDimOrders[0], 0)
	uniMulti := multicast.UnicastHops(shape, root, multi)
	fmt.Printf("\nwith two endpoint copies per node:\n")
	fmt.Printf("  unicasts:       %d torus hops\n", uniMulti)
	fmt.Printf("  multicast tree: %d torus hops (saves %d)\n", treeMulti.TorusHops(), uniMulti-treeMulti.TorusHops())

	// Figure 3's load-balancing point: alternating between XY-first and
	// YX-first trees for successive packets halves the peak channel load
	// of an asymmetric destination set.
	asym := []topo.NodeEp{}
	for _, off := range [][2]int{{1, 1}, {1, 2}, {2, 1}} {
		c := shape.Wrap(topo.NodeCoord{X: root.X + off[0], Y: root.Y + off[1], Z: root.Z})
		asym = append(asym, topo.NodeEp{Node: shape.NodeID(c), Ep: 0})
	}
	xy := multicast.Build(shape, root, asym, topo.DimOrder{topo.DimX, topo.DimY, topo.DimZ}, 0)
	yx := multicast.Build(shape, root, asym, topo.DimOrder{topo.DimY, topo.DimX, topo.DimZ}, 0)
	same := multicast.MaxLoad(multicast.ChannelLoads(shape, []*multicast.Tree{xy, xy}))
	alt := multicast.MaxLoad(multicast.ChannelLoads(shape, []*multicast.Tree{xy, yx}))
	fmt.Printf("\nload balance over two packets to an L-shaped set:\n")
	fmt.Printf("  same route twice:   max channel load %d\n", same)
	fmt.Printf("  alternating routes: max channel load %d\n", alt)
}
