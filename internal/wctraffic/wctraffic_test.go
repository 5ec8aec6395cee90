package wctraffic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
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
	winners, best := Best(probeConfig(topo.DefaultDirOrder, true))
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
	if _, throughOnly := Best(probeConfig(topo.DefaultDirOrder, false)); throughOnly != 3.0 {
		t.Fatalf("through-only worst case = %g, want 3.0", throughOnly)
	}
}

// TestPaperOrderLoadUnderThisLayout pins the direction-order ablation
// (EXPERIMENTS.md "Ablations"): the order the paper publishes for its own
// adapter placement carries 3 torus channels of worst-case load on this
// layout, against 2 for the order the search picks here.
func TestPaperOrderLoadUnderThisLayout(t *testing.T) {
	if l := Evaluate(probeConfig(topo.PaperDirOrder, true)).WorstLoad; l != 3 {
		t.Errorf("paper order %v worst-case load = %g, want 3", topo.PaperDirOrder, l)
	}
	if l := Evaluate(probeConfig(topo.DefaultDirOrder, true)).WorstLoad; l != 2 {
		t.Errorf("default order %v worst-case load = %g, want 2", topo.DefaultDirOrder, l)
	}
}

// paperWorstCasePermutation is permutation (1) of the paper:
//
//	(X+ X- Y+ Y- Z+ Z-)
//	(Z- X+ Y- Z+ X- Y+)
var paperWorstCasePermutation = [topo.NumDirections]topo.Direction{
	topo.XPos: topo.ZNeg,
	topo.XNeg: topo.XPos,
	topo.YPos: topo.YNeg,
	topo.YNeg: topo.ZPos,
	topo.ZPos: topo.XNeg,
	topo.ZNeg: topo.YPos,
}

// TestPaperPermutationLoad: the paper's permutation (1) places at most two
// torus channels of load on any mesh channel under the default order.
func TestPaperPermutationLoad(t *testing.T) {
	cfg := probeConfig(topo.DefaultDirOrder, true)
	chip := cfg.Machine.Chip
	loads := Loads(cfg, paperWorstCasePermutation)
	l := maxMeshLoad(chip, loads)
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
		_, got := hungarian(w)
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
	cfg := probeConfig(topo.DefaultDirOrder, true)
	chip := cfg.Machine.Chip
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
	for in, outs := range demandPaths(cfg) {
		for out, chans := range outs {
			for _, ch := range chans {
				contrib[ch][in][out]++
			}
		}
	}
	// Enumerated per-channel maxima.
	enumMax := make([]float64, nCh)
	for _, perm := range permutations() {
		for c, l := range Loads(cfg, perm) {
			if l > enumMax[c] {
				enumMax[c] = l
			}
		}
	}
	for c := 0; c < nCh; c++ {
		got := worstChannelLoad(contrib[c])
		if got < 0 {
			got = 0 // all-forbidden rows can go negative; clamp like "no demand"
		}
		if got != enumMax[c] {
			t.Errorf("channel %s: Hungarian worst %g, enumerated %g", chip.IntraChans[c].Name, got, enumMax[c])
		}
	}
}

// TestLoadTablesPinned pins the whole analysis under both shipped skip
// settings (through and exit skips; through skips only): a sha256 over the
// float64 bits of Loads for every direction order and every derangement,
// then each order's worst load and worst permutation.
func TestLoadTablesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		exit bool
		want string
	}{
		{"default", true, "dee1560c81bb0f524dfe5a22e679104a088f6f1747cca1c4a52c2d155f974845"},
		{"through-only", false, "67381cbe1e0dc19f9bc008d065c466c1c4e1d66c7e7af3225e1d36d52b3c3a1b"},
	} {
		h := sha256.New()
		put := func(f float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f))) }
		for _, order := range topo.AllDirOrders() {
			for _, perm := range permutations() {
				for _, l := range pinnedLoads(order, c.exit, perm) {
					put(l)
				}
			}
			r := pinnedEvaluate(order, c.exit)
			put(r.WorstLoad)
			for _, d := range r.WorstPerm {
				h.Write([]byte{byte(d)})
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: load tables hash %s, want %s", c.name, got, c.want)
		}
	}
}

func pinnedLoads(order topo.DirOrder, exit bool, perm [topo.NumDirections]topo.Direction) []float64 {
	return Loads(probeConfig(order, exit), perm)
}

func pinnedEvaluate(order topo.DirOrder, exit bool) Result {
	return Evaluate(probeConfig(order, exit))
}

// probeConfig is the shipped routing on a 6x6x6 probe machine under a
// direction order, with or without exit skips.
func probeConfig(order topo.DirOrder, exit bool) *route.Config {
	cfg := route.NewConfig(topo.MustMachine(topo.Shape3(6, 6, 6)))
	cfg.DirOrder, cfg.ExitSkip = order, exit
	return cfg
}
