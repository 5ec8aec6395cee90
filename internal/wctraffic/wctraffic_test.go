package wctraffic

import (
	"math/rand"
	"sort"
	"testing"

	"anton2/internal/route"
	"anton2/internal/topo"
)

// TestBestWorstCaseLoadIsTwo reproduces the central Section 2.4 result: the
// optimized direction-order algorithm limits the worst-case mesh-channel
// load to two torus channels' worth of traffic (Figure 4), and each mesh
// channel's 288 Gb/s comfortably carries 2 x 89.6 Gb/s with headroom for
// endpoint traffic.
func TestBestWorstCaseLoadIsTwo(t *testing.T) {
	chip := topo.DefaultChip()
	winners, best := Best(chip, DefaultPolicy)
	if best != 2.0 {
		t.Fatalf("optimal worst-case mesh load = %g, want 2.0", best)
	}
	found := false
	for _, w := range winners {
		if w.Order == topo.DefaultDirOrder {
			found = true
		}
	}
	if !found {
		t.Errorf("DefaultDirOrder %v not among the %d optimal orders", topo.DefaultDirOrder, len(winners))
	}
	if len(winners) == 24 {
		t.Error("every order is optimal; the direction-order search would be vacuous")
	}
}

// TestSkipChannelsEssential: restricting skips to through-traffic only
// raises the worst case to 3 torus channels, demonstrating why X-turning
// traffic must also cross the skip.
func TestSkipChannelsEssential(t *testing.T) {
	chip := topo.DefaultChip()
	_, throughOnly := Best(chip, Policy{Through: true})
	if throughOnly != 3.0 {
		t.Fatalf("through-only worst case = %g, want 3.0", throughOnly)
	}
	_, none := Best(chip, Policy{})
	if none < 3.0 {
		t.Fatalf("no-skip worst case = %g, want >= 3.0", none)
	}
}

// TestPaperOrderLoadUnderThisLayout pins the direction-order ablation
// (EXPERIMENTS.md "Ablations"): the order the paper publishes for its own
// adapter placement carries 3 torus channels of worst-case load on this
// layout, against 2 for the order the search picks here.
func TestPaperOrderLoadUnderThisLayout(t *testing.T) {
	chip := topo.DefaultChip()
	if l := Evaluate(chip, topo.PaperDirOrder, DefaultPolicy).WorstLoad; l != 3 {
		t.Errorf("paper order %v worst-case load = %g, want 3", topo.PaperDirOrder, l)
	}
	if l := Evaluate(chip, topo.DefaultDirOrder, DefaultPolicy).WorstLoad; l != 2 {
		t.Errorf("default order %v worst-case load = %g, want 2", topo.DefaultDirOrder, l)
	}
}

// TestPaperPermutationLoad: the paper's permutation (1) places at most two
// torus channels of load on any mesh channel under the default order.
func TestPaperPermutationLoad(t *testing.T) {
	chip := topo.DefaultChip()
	loads := Loads(chip, topo.DefaultDirOrder, DefaultPolicy, PaperWorstCasePermutation)
	l, _ := MaxMeshLoad(chip, loads)
	if l > 2.0 {
		t.Fatalf("paper permutation load = %g under default order, want <= 2.0", l)
	}
	// Adapter links carry exactly their own channel's demand.
	for i, v := range loads {
		ch := &chip.IntraChans[i]
		if ch.From.Kind == topo.LocAdapter || ch.To.Kind == topo.LocAdapter {
			if v > topo.NumSlices {
				t.Errorf("adapter link %s load %g exceeds slice count", ch.Name, v)
			}
		}
	}
}

func TestPermutationEnumeration(t *testing.T) {
	perms := permutations()
	// Derangements of 6 elements: 265.
	if len(perms) != 265 {
		t.Fatalf("got %d fixed-point-free permutations, want 265", len(perms))
	}
	for _, p := range perms {
		var seen [topo.NumDirections]bool
		for i, d := range p {
			if int(d) == i {
				t.Fatalf("permutation %v has a U-turn", p)
			}
			if seen[d] {
				t.Fatalf("permutation %v repeats %v", p, d)
			}
			seen[d] = true
		}
	}
}

// TestPathChannelsMatchesWalker: the analytic demand paths must equal the
// intra-node channels the real route walker produces at an intermediate
// node implementing that demand.
func TestPathChannelsMatchesWalker(t *testing.T) {
	m := topo.MustMachine(topo.Shape3(6, 6, 6))
	cfg := route.NewConfig(m)
	chip := m.Chip

	// For a demand (In, Out), build a route that travels through node
	// mid = (3,3,3) arriving via In and departing via Out.
	mid := topo.NodeCoord{X: 3, Y: 3, Z: 3}
	for in := topo.Direction(0); in < topo.NumDirections; in++ {
		for out := topo.Direction(0); out < topo.NumDirections; out++ {
			if out == in {
				continue // U-turns impossible
			}
			travelIn := in.Opposite() // arriving on channel `in` means traveling opposite(in)
			travelOut := out
			if travelIn.Dim() == travelOut.Dim() && travelIn != travelOut {
				continue // direction flip within a dimension: not minimal
			}
			for s := 0; s < topo.NumSlices; s++ {
				// Source one hop before mid along travelIn;
				// destination one hop past mid along travelOut,
				// keeping every leg well under the minimal-route
				// bound so the route passes through mid.
				srcC := m.Shape.Neighbor(mid, travelIn.Opposite())
				dstC := m.Shape.Neighbor(mid, travelOut)
				var ord topo.DimOrder
				if travelIn.Dim() == travelOut.Dim() {
					ord = orderStartingWith(travelIn.Dim(), travelIn.Dim())
				} else {
					ord = orderStartingWith(travelIn.Dim(), travelOut.Dim())
				}
				src := topo.NodeEp{Node: m.Shape.NodeID(srcC), Ep: 0}
				dst := topo.NodeEp{Node: m.Shape.NodeID(dstC), Ep: 0}
				hops := route.Walk(cfg, src, dst, ord, uint8(s), [3]int8{1, 1, 1}, route.ClassRequest)

				var got []int
				midID := m.Shape.NodeID(mid)
				for _, h := range hops {
					if !m.IsTorusChan(h.Chan) {
						if n, ch := m.IntraChanOf(h.Chan); n == midID {
							got = append(got, ch.ID)
						}
					}
				}
				want := PathChannels(chip, cfg.DirOrder, DefaultPolicy, Demand{In: in, Out: out}, s)
				sort.Ints(got)
				wantSorted := append([]int(nil), want...)
				sort.Ints(wantSorted)
				if !equalInts(got, wantSorted) {
					t.Errorf("demand %v->%v slice %d: walker uses %v, analysis predicts %v",
						in, out, s, names(chip, got), names(chip, wantSorted))
				}
			}
		}
	}
}

// orderStartingWith returns a dimension order beginning with first and, if
// different, continuing with second.
func orderStartingWith(first, second topo.Dim) topo.DimOrder {
	var ord topo.DimOrder
	ord[0] = first
	i := 1
	if second != first {
		ord[i] = second
		i++
	}
	for d := topo.Dim(0); d < topo.NumDims; d++ {
		if d != first && d != second {
			ord[i] = d
			i++
		}
	}
	for i < topo.NumDims {
		// first == second case: fill remaining dims.
		for d := topo.Dim(0); d < topo.NumDims; d++ {
			if d != first && ord[1] != d {
				ord[i] = d
				i++
				if i >= topo.NumDims {
					break
				}
			}
		}
	}
	return ord
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func names(chip *topo.Chip, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = chip.IntraChans[id].Name
	}
	return out
}

// TestHungarianMatchesBruteForce validates the assignment solver against
// exhaustive enumeration on random matrices.
func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = float64(rng.Intn(100))
			}
		}
		_, got := Hungarian(w)
		want := bruteForceMax(w)
		if got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("trial %d: Hungarian = %g, brute force = %g", trial, got, want)
		}
	}
}

func bruteForceMax(w [][]float64) float64 {
	n := len(w)
	perm := make([]int, n)
	used := make([]bool, n)
	best := -1e18
	var rec func(i int, sum float64)
	rec = func(i int, sum float64) {
		if i == n {
			if sum > best {
				best = sum
			}
			return
		}
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			perm[i] = j
			rec(i+1, sum+w[i][j])
			used[j] = false
		}
	}
	rec(0, 0)
	return best
}

// TestHungarianAgreesWithEnumeratedWorstCase: per-channel worst loads from
// the assignment solver equal the enumerated maxima.
func TestHungarianAgreesWithEnumeratedWorstCase(t *testing.T) {
	chip := topo.DefaultChip()
	order := topo.DefaultDirOrder
	// Build per-channel contribution matrices and compare the Hungarian
	// worst case to the enumerated one for a few mesh channels.
	nCh := len(chip.IntraChans)
	contrib := make([][][]float64, nCh)
	for c := range contrib {
		contrib[c] = make([][]float64, topo.NumDirections)
		for i := range contrib[c] {
			contrib[c][i] = make([]float64, topo.NumDirections)
		}
	}
	for in := topo.Direction(0); in < topo.NumDirections; in++ {
		for out := topo.Direction(0); out < topo.NumDirections; out++ {
			if out == in {
				continue
			}
			for s := 0; s < topo.NumSlices; s++ {
				for _, ch := range PathChannels(chip, order, DefaultPolicy, Demand{In: in, Out: out}, s) {
					contrib[ch][in][out]++
				}
			}
		}
	}
	// Enumerated per-channel maxima.
	enumMax := make([]float64, nCh)
	for _, perm := range permutations() {
		loads := Loads(chip, order, DefaultPolicy, perm)
		for c, l := range loads {
			if l > enumMax[c] {
				enumMax[c] = l
			}
		}
	}
	for c := 0; c < nCh; c++ {
		got := WorstChannelLoad(contrib[c])
		if got < 0 {
			got = 0 // all-forbidden rows can go negative; clamp like "no demand"
		}
		if got != enumMax[c] {
			t.Errorf("channel %s: Hungarian worst %g, enumerated %g", chip.IntraChans[c].Name, got, enumMax[c])
		}
	}
}
