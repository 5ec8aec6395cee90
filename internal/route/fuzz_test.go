package route

import (
	"testing"

	"anton2/internal/topo"
)

// fuzzShape maps three fuzz bytes onto a valid torus shape with radices in
// [1,8], covering the degenerate 1-ary and 2-ary rings alongside production
// sizes.
func fuzzShape(kx, ky, kz uint8) topo.TorusShape {
	return topo.Shape3(int(kx%8)+1, int(ky%8)+1, int(kz%8)+1)
}

// FuzzWalk drives the full route enumeration — the exact transition
// functions the simulator executes — across fuzzed shapes, endpoints, and
// routing choices, and asserts the properties the deadlock and load analyses
// rely on: the walk terminates at the destination (Walk panics otherwise),
// takes exactly the minimal inter-node hop count, and never demotes or
// overflows a VC counter.
func FuzzWalk(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint16(0), uint16(511), uint8(0), uint8(22), uint8(0), uint8(1), uint8(5), uint8(0), false)
	f.Add(uint8(4), uint8(4), uint8(2), uint16(3), uint16(3), uint8(7), uint8(7), uint8(3), uint8(0), uint8(2), uint8(1), true)
	f.Add(uint8(1), uint8(1), uint8(1), uint16(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(2), true)

	f.Fuzz(func(t *testing.T, kx, ky, kz uint8, srcNode, dstNode uint16,
		srcEp, dstEp, orderIdx, sliceTies, class, schemeSel uint8, exitSkip bool) {
		shape := fuzzShape(kx, ky, kz)
		m, err := topo.NewMachine(shape)
		if err != nil {
			t.Fatalf("NewMachine(%v): %v", shape, err)
		}
		var scheme Strategy
		switch schemeSel % 3 {
		case 0:
			scheme = AntonScheme{}
		case 1:
			scheme = BaselineScheme{}
		default:
			scheme = NoDatelineScheme{}
		}
		cfg := &Config{
			Machine:  m,
			Scheme:   scheme,
			DirOrder: topo.DefaultDirOrder,
			UseSkip:  true,
			ExitSkip: exitSkip,
		}
		src := topo.NodeEp{Node: int(srcNode) % shape.NumNodes(), Ep: int(srcEp) % topo.NumEndpoints}
		dst := topo.NodeEp{Node: int(dstNode) % shape.NumNodes(), Ep: int(dstEp) % topo.NumEndpoints}
		ord := topo.AllDimOrders[int(orderIdx)%len(topo.AllDimOrders)]
		slice := sliceTies % topo.NumSlices
		var ties [topo.NumDims]int8
		for d := 0; d < topo.NumDims; d++ {
			if sliceTies>>(1+d)&1 != 0 {
				ties[d] = 1
			} else {
				ties[d] = -1
			}
		}

		hops := Walk(cfg, src, dst, ord, slice, ties, Class(class%NumClasses))

		torusHops := 0
		var lastTVC int = -1
		for _, h := range hops {
			if !m.IsTorusChan(h.Chan) {
				continue
			}
			torusHops++
			if int(h.VC) >= scheme.TorusVCs() {
				t.Fatalf("torus hop uses VC %d, scheme %s allows %d", h.VC, scheme.Name(), scheme.TorusVCs())
			}
			if int(h.VC) < lastTVC {
				t.Fatalf("T-VC demoted %d -> %d along %v->%v (scheme %s, order %v, ties %v)",
					lastTVC, h.VC, src, dst, scheme.Name(), ord, ties)
			}
			lastTVC = int(h.VC)
		}
		if want := InterNodeHops(shape, src, dst); torusHops != want {
			t.Fatalf("route %v->%v on %v took %d torus hops, minimal is %d", src, dst, shape, torusHops, want)
		}

		// Every torus hop must leave on the slice the packet chose.
		for _, h := range hops {
			if m.IsTorusChan(h.Chan) {
				if _, ad := m.TorusChanOf(h.Chan); ad.Slice != int(slice) {
					t.Fatalf("route with slice %d crossed torus channel of slice %d", slice, ad.Slice)
				}
			}
		}
	})
}

// FuzzStrategyWalk drives every registered strategy across fuzzed shapes,
// endpoints, and raw (pre-Choose) routing choices, asserting the resource
// discipline the deadlock argument needs from any strategy: the walk
// terminates (Walk panics otherwise), takes exactly the strategy's expected
// inter-node hop count, every hop stays inside the ChannelVCs budget of its
// channel group, and no (channel, VC) resource is ever revisited — a route
// that reacquires a resource it already released is a dependency cycle of
// length one waiting to happen.
func FuzzStrategyWalk(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint16(0), uint16(511), uint8(0), uint8(22), uint8(0), uint8(1), uint8(5), uint8(0), false)
	f.Add(uint8(4), uint8(4), uint8(2), uint16(3), uint16(3), uint8(7), uint8(7), uint8(3), uint8(0), uint8(2), uint8(1), true)
	f.Add(uint8(3), uint8(3), uint8(3), uint16(1), uint16(25), uint8(2), uint8(9), uint8(5), uint8(3), uint8(1), uint8(2), true)
	f.Add(uint8(1), uint8(2), uint8(5), uint16(4), uint16(9), uint8(1), uint8(0), uint8(1), uint8(2), uint8(0), uint8(3), false)

	f.Fuzz(func(t *testing.T, kx, ky, kz uint8, srcNode, dstNode uint16,
		srcEp, dstEp, orderIdx, sliceTies, class, stratSel uint8, exitSkip bool) {
		shape := fuzzShape(kx, ky, kz)
		m, err := topo.NewMachine(shape)
		if err != nil {
			t.Fatalf("NewMachine(%v): %v", shape, err)
		}
		names := StrategyNames()
		strat, _ := StrategyByName(names[int(stratSel)%len(names)])
		cfg := &Config{
			Machine:  m,
			Scheme:   strat,
			DirOrder: topo.DefaultDirOrder,
			UseSkip:  true,
			ExitSkip: exitSkip,
		}
		src := topo.NodeEp{Node: int(srcNode) % shape.NumNodes(), Ep: int(srcEp) % topo.NumEndpoints}
		dst := topo.NodeEp{Node: int(dstNode) % shape.NumNodes(), Ep: int(dstEp) % topo.NumEndpoints}
		raw := Choices{
			Order: topo.AllDimOrders[int(orderIdx)%len(topo.AllDimOrders)],
			Slice: sliceTies % topo.NumSlices,
		}
		for d := 0; d < topo.NumDims; d++ {
			if sliceTies>>(1+d)&1 != 0 {
				raw.Ties[d] = 1
			} else {
				raw.Ties[d] = -1
			}
		}
		cls := Class(class % NumClasses)
		c := strat.Choose(cfg, src, dst, raw, cls)
		if again := strat.Choose(cfg, src, dst, c, cls); again != c {
			t.Fatalf("%s: Choose not idempotent: %+v -> %+v", strat.Name(), c, again)
		}

		hops := Walk(cfg, src, dst, c.Order, c.Slice, c.Ties, cls)

		torusHops := 0
		seen := make(map[Hop]bool, len(hops))
		for _, h := range hops {
			if budget := ChannelVCs(strat, m.ChanGroup(h.Chan)); int(h.VC) >= budget {
				t.Fatalf("%s: hop on %s uses VC %d, budget is %d",
					strat.Name(), m.ChanName(h.Chan), h.VC, budget)
			}
			if seen[h] {
				t.Fatalf("%s: route %v->%v revisits resource (%s, vc%d)",
					strat.Name(), src, dst, m.ChanName(h.Chan), h.VC)
			}
			seen[h] = true
			if m.IsTorusChan(h.Chan) {
				torusHops++
			}
		}
		if want := InterNodeHopsFor(strat, shape, src, dst); torusHops != want {
			t.Fatalf("%s: route %v->%v on %v took %d torus hops, want %d",
				strat.Name(), src, dst, shape, torusHops, want)
		}
	})
}
