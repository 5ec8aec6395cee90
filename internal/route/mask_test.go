package route

import (
	"math/rand"
	"testing"

	"anton2/internal/topo"
)

// TestChoicesAvoidingSingleLink: for every (src, dst) pair on a small torus
// and every single failed torus link, ChoicesAvoiding must find failure-free
// choices (a single unidirectional outage is always avoidable: the parallel
// slice of the same dimension hop remains), and the returned choices must
// verifiably avoid the link.
func TestChoicesAvoidingSingleLink(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(2, 2, 2), AntonScheme{})
	m := cfg.Machine
	rng := rand.New(rand.NewSource(11))
	nodes := m.Shape.NumNodes()
	for trial := 0; trial < 200; trial++ {
		src := topo.NodeEp{Node: rng.Intn(nodes), Ep: 0}
		dst := topo.NodeEp{Node: rng.Intn(nodes), Ep: 1}
		if src.Node == dst.Node {
			continue
		}
		c := RandomChoices(rng)
		// Fail one torus link actually used by the preferred route, so the
		// reroute path is exercised.
		hops := Walk(cfg, src, dst, c.Order, c.Slice, c.Ties, ClassRequest)
		var torus []int
		for _, h := range hops {
			if m.IsTorusChan(h.Chan) {
				torus = append(torus, h.Chan)
			}
		}
		if len(torus) == 0 {
			continue
		}
		failed := map[int]bool{torus[rng.Intn(len(torus))]: true}
		got, rerouted, ok := ChoicesAvoiding(cfg, src, dst, c, ClassRequest, failed)
		if !ok {
			t.Fatalf("trial %d: no avoiding route for %v->%v around %v", trial, src, dst, failed)
		}
		if !rerouted {
			t.Fatalf("trial %d: failed link on preferred route but no reroute reported", trial)
		}
		if usesAny(cfg, src, dst, got, ClassRequest, failed) {
			t.Fatalf("trial %d: returned choices still use the failed link", trial)
		}
	}
}

// TestChoicesAvoidingNoFault: with an empty failure set the original choices
// come back unchanged (the common path must not perturb routing).
func TestChoicesAvoidingNoFault(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(2, 2, 2), AntonScheme{})
	rng := rand.New(rand.NewSource(3))
	src, dst := topo.NodeEp{Node: 0, Ep: 0}, topo.NodeEp{Node: 7, Ep: 1}
	c := RandomChoices(rng)
	got, rerouted, ok := ChoicesAvoiding(cfg, src, dst, c, ClassRequest, nil)
	if !ok || rerouted || got != c {
		t.Fatalf("empty mask perturbed choices: %+v -> %+v (rerouted=%v ok=%v)", c, got, rerouted, ok)
	}
}

// TestChoicesAvoidingUnroutable: failing both slices of every +X link out of
// the source's column makes some destinations unreachable under minimal
// routing; ChoicesAvoiding must report ok=false rather than loop or panic.
func TestChoicesAvoidingUnroutable(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(2, 2, 2), AntonScheme{})
	m := cfg.Machine
	src := topo.NodeEp{Node: 0, Ep: 0}
	dst := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{X: 1}), Ep: 1}
	// The minimal route 0->(1,0,0) must take exactly one X hop from node 0;
	// fail both slices in both X directions at the source node.
	failed := map[int]bool{}
	for _, dir := range []topo.Direction{topo.XPos, topo.XNeg} {
		for s := 0; s < topo.NumSlices; s++ {
			failed[m.TorusChanID(src.Node, dir, s)] = true
		}
	}
	rng := rand.New(rand.NewSource(5))
	_, _, ok := ChoicesAvoiding(cfg, src, dst, RandomChoices(rng), ClassRequest, failed)
	if ok {
		t.Fatal("ChoicesAvoiding found a route through a fully failed dimension")
	}
}
