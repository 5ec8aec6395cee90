package route

import (
	"fmt"
	"sort"

	"anton2/internal/topo"
)

// Strategy is a first-class routing strategy: a VC promotion discipline
// (Scheme) plus the path-selection policy that goes with it. The policy
// decides which of the randomized routing choices of Section 2.3 are
// admissible — a strategy whose deadlock argument rests on restricted paths
// (rather than dateline VC promotion) narrows the choice set instead of
// widening the VC budget.
//
// The simulator, the load calculator, and the deadlock analyzer all consult
// the same Strategy, so a strategy's measured behavior, analytic saturation
// rate, and verified dependency graph cannot diverge.
type Strategy interface {
	Scheme
	// Wraps reports whether the strategy's routes may use torus
	// wrap-around links (minimal routing). Non-wrapping strategies route
	// monotonically from source to destination coordinate and never cross
	// a dateline.
	Wraps() bool
	// Choose maps uniformly randomized routing choices onto the
	// strategy's admissible set. For unrestricted (minimal, randomized)
	// strategies this is the identity.
	Choose(cfg *Config, src, dst topo.NodeEp, c Choices, class Class) Choices
	// Enumerate lists the strategy's admissible routing choices for a
	// node pair with their probabilities under Choose of uniform random
	// draws. The weights sum to 1.
	Enumerate(shape topo.TorusShape, a, b topo.NodeCoord) []WeightedChoice
}

// FaultRouter is implemented by strategies that natively route around
// permanently failed links (Angara-style graph routing). A machine whose
// strategy is a FaultRouter is not considered degraded by link outages the
// strategy absorbs: rerouting is part of the algorithm, not an emergency.
type FaultRouter interface {
	// ChooseAvoiding returns admissible routing choices for src->dst that
	// avoid every channel in failed, preferring c when it already does.
	// ok is false when no admissible route avoids the failed set.
	ChooseAvoiding(cfg *Config, src, dst topo.NodeEp, c Choices, class Class, failed map[int]bool) (out Choices, ok bool)
}

// minimalPolicy is the unrestricted path policy shared by the VC promotion
// schemes: fully randomized minimal routing (any dimension order, slice, and
// tie-break), with deadlock freedom supplied entirely by the VC discipline.
type minimalPolicy struct{}

func (minimalPolicy) Wraps() bool { return true }

func (minimalPolicy) Choose(cfg *Config, src, dst topo.NodeEp, c Choices, class Class) Choices {
	return c
}

func (minimalPolicy) Enumerate(shape topo.TorusShape, a, b topo.NodeCoord) []WeightedChoice {
	return EnumerateChoices(shape, a, b)
}

// monotonePolicy is the restricted path policy of the VC-less strategy:
// a single fixed dimension order and monotone (no wrap-around) travel, so
// the admissible choices reduce to the slice pick.
type monotonePolicy struct{}

// monotoneOrder is the fixed dimension order of non-wrapping strategies.
var monotoneOrder = topo.DimOrder{topo.DimX, topo.DimY, topo.DimZ}

// canonicalTies is the tie-break vector of strategies that never face a
// tie (monotone travel has a unique direction per dimension).
var canonicalTies = [topo.NumDims]int8{1, 1, 1}

func (monotonePolicy) Wraps() bool { return false }

func (monotonePolicy) Choose(cfg *Config, src, dst topo.NodeEp, c Choices, class Class) Choices {
	return Choices{Order: monotoneOrder, Slice: c.Slice, Ties: canonicalTies}
}

func (monotonePolicy) Enumerate(shape topo.TorusShape, a, b topo.NodeCoord) []WeightedChoice {
	out := make([]WeightedChoice, topo.NumSlices)
	w := 1.0 / float64(topo.NumSlices)
	for s := 0; s < topo.NumSlices; s++ {
		out[s] = WeightedChoice{
			Choices: Choices{Order: monotoneOrder, Slice: uint8(s), Ties: canonicalTies},
			Weight:  w,
		}
	}
	return out
}

// VClessScheme is a deadlock-avoidance strategy in the spirit of VC-less
// deadlock-free routing (Cano et al., HOTI 2025): instead of buying freedom
// with dateline VC promotion, it restricts paths so the torus channels can
// never form a cycle, and runs the whole T-group on a single VC per class.
//
// The restriction: packets route monotonically from source coordinate to
// destination coordinate (no wrap-around links) in the fixed order X, Y, Z.
// Monotone travel never crosses a dateline, each dimension's channels form a
// DAG along the ring, and the fixed order layers the dimensions; the M-group
// legs between dimensions are layered by the position-tied M-VC (as in
// BaselineScheme). The price is path length — mean hops grow from k/4 to
// ~k/3 per dimension and the wrap links sit idle — and the loss of the
// randomized-order load balancing. The payoff is a T-group of 1 VC per
// class instead of the paper's n+1 = 4, which internal/area prices directly.
type VClessScheme struct{ monotonePolicy }

// Name implements Scheme.
func (VClessScheme) Name() string { return "vcless" }

// MeshVCs implements Scheme: the M-group still needs a VC per dimension
// boundary to layer the on-chip legs between torus dimensions.
func (VClessScheme) MeshVCs() int { return topo.NumDims + 1 }

// TorusVCs implements Scheme: the headline saving — one T-group VC per
// class, since path restriction (not promotion) breaks torus cycles.
func (VClessScheme) TorusVCs() int { return 1 }

// EnterDim implements Scheme.
func (VClessScheme) EnterDim(mvc uint8, dimIdx int) uint8 { return 0 }

// CrossDateline implements Scheme. Monotone routes never cross a dateline;
// the identity keeps the analyzer honest if one ever did (a cycle would
// appear and Verify would reject the strategy).
func (VClessScheme) CrossDateline(tvc uint8) uint8 { return tvc }

// ExitDim implements Scheme: position-tied like BaselineScheme, keeping the
// M_0 -> T_X -> M_1 -> T_Y -> M_2 -> T_Z -> M_3 chain strictly layered even
// when dimensions are skipped with zero hops.
func (VClessScheme) ExitDim(tvc, mvc uint8, dimIdx int, traveled, crossed bool) uint8 {
	if !traveled {
		return mvc
	}
	return uint8(dimIdx + 1)
}

// AngaraStrategy is an Angara-style graph-based routing strategy (Mukosey,
// Semenov & Simonov): the healthy network routes exactly like the paper's
// scheme (randomized minimal with n+1-VC promotion), but when links are
// killed by the fault layer it searches each source/destination pair's
// admissible path set in the failure-masked channel graph and deterministically
// balances the pair's traffic across the surviving paths. Rerouting is part
// of the algorithm, so runs with absorbed link deaths are NOT degraded —
// unlike the static schemes, whose emergency rerouting concedes degradation.
type AngaraStrategy struct{ AntonScheme }

// Name implements Scheme.
func (AngaraStrategy) Name() string { return "angara" }

// ChooseAvoiding implements FaultRouter. Candidates come from the full
// minimal-choice enumeration (the same per-pair path set the deadlock
// analyzer verifies, so rerouted traffic stays inside the proven-acyclic
// graph); each candidate's walk is a search through the channel graph with
// the failed links removed. Selection among the surviving candidates is a
// deterministic hash of (pair, candidate), which spreads different pairs
// across different survivors instead of piling every flow onto the first.
func (AngaraStrategy) ChooseAvoiding(cfg *Config, src, dst topo.NodeEp, c Choices, class Class, failed map[int]bool) (Choices, bool) {
	if !UsesAny(cfg, src, dst, c, class, failed) {
		return c, true
	}
	shape := cfg.Machine.Shape
	cands := EnumerateChoices(shape, shape.Coord(src.Node), shape.Coord(dst.Node))
	best, bestKey := -1, uint64(0)
	for i, wc := range cands {
		if UsesAny(cfg, src, dst, wc.Choices, class, failed) {
			continue
		}
		key := pairHash(src, dst, i)
		if best < 0 || key < bestKey {
			best, bestKey = i, key
		}
	}
	if best < 0 {
		return c, false
	}
	return cands[best].Choices, true
}

// pairHash is a SplitMix64-style mix of a source/destination pair and a
// candidate index, used for deterministic balanced path selection.
func pairHash(src, dst topo.NodeEp, i int) uint64 {
	z := uint64(src.Node)<<40 ^ uint64(src.Ep)<<32 ^ uint64(dst.Node)<<8 ^ uint64(dst.Ep)
	z = z*2 + uint64(i)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// InterNodeHopsFor returns the inter-node hop count of the strategy's route
// for a node pair: the minimal wrap-around distance for wrapping strategies,
// the monotone coordinate distance otherwise. Like InterNodeHops, the count
// is independent of which admissible choice the packet draws.
func InterNodeHopsFor(s Strategy, shape topo.TorusShape, src, dst topo.NodeEp) int {
	if s.Wraps() {
		return InterNodeHops(shape, src, dst)
	}
	a, b := shape.Coord(src.Node), shape.Coord(dst.Node)
	total := 0
	for d := topo.Dim(0); d < topo.NumDims; d++ {
		delta := b.Get(d) - a.Get(d)
		if delta < 0 {
			delta = -delta
		}
		total += delta
	}
	return total
}

// The strategy registry. Strategies register by Name; the shipped set is
// registered at init. The deliberately broken NoDatelineScheme is NOT
// registered — it exists to prove the deadlock analyzer has teeth, and the
// registry is the set a user may select and a routecompare run scores.
var strategies = map[string]Strategy{}

// RegisterStrategy adds a strategy to the registry. It panics on a duplicate
// or empty name: registration happens at init time and a collision is a
// programming error, not a runtime condition.
func RegisterStrategy(s Strategy) {
	name := s.Name()
	if name == "" {
		panic("route: RegisterStrategy with empty name")
	}
	if _, dup := strategies[name]; dup {
		panic(fmt.Sprintf("route: duplicate strategy %q", name))
	}
	strategies[name] = s
}

// StrategyByName looks up a registered strategy.
func StrategyByName(name string) (Strategy, bool) {
	s, ok := strategies[name]
	return s, ok
}

// StrategyNames returns the registered strategy names, sorted.
func StrategyNames() []string {
	out := make([]string, 0, len(strategies))
	for name := range strategies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Strategies returns the registered strategies in name order.
func Strategies() []Strategy {
	out := make([]Strategy, 0, len(strategies))
	for _, name := range StrategyNames() {
		out = append(out, strategies[name])
	}
	return out
}

func init() {
	RegisterStrategy(AntonScheme{})
	RegisterStrategy(BaselineScheme{})
	RegisterStrategy(VClessScheme{})
	RegisterStrategy(AngaraStrategy{})
}
