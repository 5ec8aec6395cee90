package fault

import "anton2/internal/sim"

// Stream kinds, used to decorrelate the per-link SplitMix64 streams.
const (
	streamCorrupt = iota
	streamStall
	streamCredit
	streamFail
	numStreams
)

// Injector draws deterministic fault decisions from per-link, per-kind
// SplitMix64 streams. Each decision advances exactly one stream by one step,
// and the call sequence on a given link is fully determined by the simulated
// schedule, so runs are reproducible regardless of host parallelism.
type Injector struct {
	spec    Spec
	seed    uint64
	corrupt []uint64 // per-link stream states
	stall   []uint64
	credit  []uint64
}

// NewInjector builds an injector for links torus links; seed is the
// spec-hash-derived machine seed.
func NewInjector(spec Spec, seed uint64, links int) *Injector {
	in := &Injector{
		spec:    spec,
		seed:    seed,
		corrupt: make([]uint64, links),
		stall:   make([]uint64, links),
		credit:  make([]uint64, links),
	}
	for i := 0; i < links; i++ {
		in.corrupt[i] = streamSeed(seed, streamCorrupt, i)
		in.stall[i] = streamSeed(seed, streamStall, i)
		in.credit[i] = streamSeed(seed, streamCredit, i)
	}
	return in
}

// streamSeed derives an initial SplitMix64 state for one (kind, link)
// stream. One warm-up step diffuses the structured input.
func streamSeed(seed uint64, kind, link int) uint64 {
	s := seed ^ (uint64(link)*numStreams+uint64(kind))*0x9e3779b97f4a7c15
	sim.SplitMix64(&s)
	return s
}

// rand01 advances a stream and returns a uniform float64 in [0,1).
func rand01(state *uint64) float64 {
	return float64(sim.SplitMix64(state)>>11) / (1 << 53)
}

// CorruptNext decides whether the next frame transmitted on link is
// corrupted. Called exactly once per physical transmission.
func (in *Injector) CorruptNext(link int) bool {
	if in.spec.CorruptRate <= 0 {
		return false
	}
	return rand01(&in.corrupt[link]) < in.spec.CorruptRate
}

// StallNext decides whether link begins a transient stall this cycle.
// Called once per cycle for every healthy, unstalled link.
func (in *Injector) StallNext(link int) bool {
	if in.spec.StallRate <= 0 {
		return false
	}
	return rand01(&in.stall[link]) < in.spec.StallRate
}

// DropCreditNext decides whether the next credit-return message on link is
// lost. Called exactly once per credit return.
func (in *Injector) DropCreditNext(link int) bool {
	if in.spec.CreditLossRate <= 0 {
		return false
	}
	return rand01(&in.credit[link]) < in.spec.CreditLossRate
}

// FailedLinks picks min(spec.FailLinks, links) distinct link indices to take
// permanently out of service, via a seeded partial Fisher-Yates shuffle. The
// result is sorted for stable reporting.
func (in *Injector) FailedLinks(links int) []int {
	n := in.spec.FailLinks
	if n <= 0 || links == 0 {
		return nil
	}
	if n > links {
		n = links
	}
	idx := make([]int, links)
	for i := range idx {
		idx[i] = i
	}
	state := streamSeed(in.seed, streamFail, 0)
	for i := 0; i < n; i++ {
		j := i + int(sim.SplitMix64(&state)%uint64(links-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return sortedInts(idx[:n])
}
