package route

import (
	"testing"

	"anton2/internal/topo"
)

func edgeConfig(t testing.TB, shape topo.TorusShape) *Config {
	t.Helper()
	m, err := topo.NewMachine(shape)
	if err != nil {
		t.Fatal(err)
	}
	return NewConfig(m)
}

// allTies enumerates every tie-break sign assignment.
func allTies() [][topo.NumDims]int8 {
	var out [][topo.NumDims]int8
	for mask := 0; mask < 1<<topo.NumDims; mask++ {
		var ties [topo.NumDims]int8
		for d := 0; d < topo.NumDims; d++ {
			if mask&(1<<d) != 0 {
				ties[d] = 1
			} else {
				ties[d] = -1
			}
		}
		out = append(out, ties)
	}
	return out
}

// TestWalkSelfAddressed: a route whose source and destination share a node
// — including the fully self-addressed src == dst case — stays entirely on
// the chip mesh.
func TestWalkSelfAddressed(t *testing.T) {
	for _, shape := range []topo.TorusShape{topo.Shape3(1, 1, 1), topo.Shape3(2, 2, 2)} {
		cfg := edgeConfig(t, shape)
		m := cfg.Machine
		for _, ord := range topo.AllDimOrders {
			for _, eps := range [][2]int{{0, 0}, {0, 5}, {topo.NumEndpoints - 1, 3}} {
				src := topo.NodeEp{Node: 0, Ep: eps[0]}
				dst := topo.NodeEp{Node: 0, Ep: eps[1]}
				hops := Walk(cfg, src, dst, ord, 0, [topo.NumDims]int8{1, 1, 1}, ClassRequest)
				for _, h := range hops {
					if m.IsTorusChan(h.Chan) {
						t.Fatalf("%v: same-node route %v->%v crossed torus channel %d", shape, src, dst, h.Chan)
					}
				}
			}
		}
	}
}

// TestWalk1x1x1AllPairs: on the single-node machine every endpoint pair and
// dimension order yields a torus-free route.
func TestWalk1x1x1AllPairs(t *testing.T) {
	cfg := edgeConfig(t, topo.Shape3(1, 1, 1))
	m := cfg.Machine
	for se := 0; se < topo.NumEndpoints; se++ {
		for de := 0; de < topo.NumEndpoints; de++ {
			for _, ord := range topo.AllDimOrders {
				src := topo.NodeEp{Node: 0, Ep: se}
				dst := topo.NodeEp{Node: 0, Ep: de}
				hops := Walk(cfg, src, dst, ord, 1, [topo.NumDims]int8{-1, -1, -1}, ClassReply)
				for _, h := range hops {
					if m.IsTorusChan(h.Chan) {
						t.Fatalf("1x1x1 route %v->%v used torus channel %d", src, dst, h.Chan)
					}
				}
			}
		}
	}
}

// TestWalk2x2x2Exhaustive sweeps every node pair, dimension order, slice,
// and tie-break assignment on the all-2-ary torus — where every dimension
// crossing is a tie — and checks minimality and T-VC monotonicity on each.
func TestWalk2x2x2Exhaustive(t *testing.T) {
	shape := topo.Shape3(2, 2, 2)
	cfg := edgeConfig(t, shape)
	m := cfg.Machine
	src := topo.NodeEp{Node: 0, Ep: 7}
	for dn := 0; dn < shape.NumNodes(); dn++ {
		dst := topo.NodeEp{Node: dn, Ep: 12}
		want := interNodeHops(shape, src, dst)
		for _, ord := range topo.AllDimOrders {
			for slice := uint8(0); slice < topo.NumSlices; slice++ {
				for _, ties := range allTies() {
					hops := Walk(cfg, src, dst, ord, slice, ties, ClassRequest)
					torus, lastVC := 0, -1
					for _, h := range hops {
						if !m.IsTorusChan(h.Chan) {
							continue
						}
						torus++
						if int(h.VC) >= cfg.Scheme.TorusVCs() {
							t.Fatalf("VC %d out of range on %v->%v", h.VC, src, dst)
						}
						if int(h.VC) < lastVC {
							t.Fatalf("T-VC demoted %d->%d on %v->%v ord %v ties %v", lastVC, h.VC, src, dst, ord, ties)
						}
						lastVC = int(h.VC)
					}
					if torus != want {
						t.Fatalf("route %v->%v ord %v slice %d ties %v took %d torus hops, minimal %d",
							src, dst, ord, slice, ties, torus, want)
					}
				}
			}
		}
	}
}
