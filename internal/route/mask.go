package route

import "anton2/internal/topo"

// Failure masking: when torus links are taken permanently out of service,
// routing degrades gracefully by steering each packet's randomized choices
// (dimension order, slice, tie-breaks) away from the failed links at
// injection time. Minimal dimension-order routing is preserved — only the
// choice within the minimal set changes — so the Section 2.5 deadlock-freedom
// argument is untouched.

// UsesAny reports whether the route for src->dst under choices c traverses
// any channel in failed (a set of global channel ids).
func UsesAny(cfg *Config, src, dst topo.NodeEp, c Choices, class Class, failed map[int]bool) bool {
	if len(failed) == 0 {
		return false
	}
	for _, h := range Walk(cfg, src, dst, c.Order, c.Slice, c.Ties, class) {
		if failed[h.Chan] {
			return true
		}
	}
	return false
}

// ChoicesAvoiding returns routing choices for src->dst that avoid every
// failed channel, preferring the given (typically randomized) choices. The
// candidate order is deterministic: the original choices, then the opposite
// slice, then every (dimension order, slice) combination in canonical order,
// all keeping the original tie-breaks, and finally the same sequence with
// every tie-break flipped. Candidates the strategy's path policy does not
// admit are skipped, so emergency rerouting never leaves the choice set the
// deadlock analyzer verified. rerouted reports whether the result differs
// from c; ok is false when no admissible candidate avoids the failed set
// (the destination is unreachable under the strategy).
func ChoicesAvoiding(cfg *Config, src, dst topo.NodeEp, c Choices, class Class, failed map[int]bool) (out Choices, rerouted, ok bool) {
	if !UsesAny(cfg, src, dst, c, class, failed) {
		return c, false, true
	}
	admits := func(cand Choices) bool {
		return cfg.Scheme.Choose(cfg, src, dst, cand, class) == cand
	}
	flip := c.Ties
	for d := range flip {
		flip[d] = -flip[d]
	}
	for _, ties := range [][topo.NumDims]int8{c.Ties, flip} {
		cand := Choices{Order: c.Order, Slice: (c.Slice + 1) % topo.NumSlices, Ties: ties}
		if admits(cand) && !UsesAny(cfg, src, dst, cand, class, failed) {
			return cand, true, true
		}
		for _, ord := range topo.AllDimOrders {
			for s := 0; s < topo.NumSlices; s++ {
				cand := Choices{Order: ord, Slice: uint8(s), Ties: ties}
				if admits(cand) && !UsesAny(cfg, src, dst, cand, class, failed) {
					return cand, true, true
				}
			}
		}
	}
	return c, false, false
}
