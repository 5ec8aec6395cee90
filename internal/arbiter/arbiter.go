// Package arbiter implements the arbitration logic of the Anton 2 network:
// locally fair round-robin arbiters, the optimized prioritized arbiter of
// Figure 8 (thermometer-encoded round-robin with a parallel-prefix
// fixed-priority rule), the accumulator update logic of Figure 6, and the
// inverse-weighted arbiter of Section 3 that provides equality of service
// from precomputed per-traffic-pattern loads.
package arbiter

import "math/bits"

// MaxInputs bounds arbiter width so request vectors fit in a uint64.
const MaxInputs = 64

// Arbiter selects one requester per invocation and updates its internal
// fairness state. req is a bitmask of requesting inputs. pats[i] holds the
// traffic-pattern id of input i's candidate packet (consulted only by
// weighted arbiters and only for the granted input); it may be nil when the
// caller has no pattern labels.
type Arbiter interface {
	// K returns the arbiter's input count.
	K() int
	// Pick returns the granted input index, or -1 if req is empty.
	Pick(req uint64, pats []uint8) int
}

// RoundRobin is a locally fair arbiter: it grants the next requesting input
// after the most recently granted one. Building the network entirely from
// these is the paper's baseline, which exhibits significant global
// unfairness beyond saturation (Section 3, Figure 9).
type RoundRobin struct {
	k    int
	next int // highest-precedence input
}

// NewRoundRobin returns a round-robin arbiter over k inputs.
func NewRoundRobin(k int) *RoundRobin {
	checkK(k)
	return &RoundRobin{k: k}
}

// K implements Arbiter.
func (a *RoundRobin) K() int { return a.k }

// Pick implements Arbiter.
func (a *RoundRobin) Pick(req uint64, _ []uint8) int {
	if req == 0 {
		return -1
	}
	for off := 0; off < a.k; off++ {
		i := a.next + off
		if i >= a.k {
			i -= a.k
		}
		if req&(1<<i) != 0 {
			a.next = i + 1
			if a.next == a.k {
				a.next = 0
			}
			return i
		}
	}
	return -1
}

// FixedPriority always grants the highest-index requester, mirroring the
// most-significant-bit-first rule of the hardware fixed-priority arbiters.
type FixedPriority struct{ k int }

// NewFixedPriority returns a fixed-priority arbiter over k inputs.
func NewFixedPriority(k int) *FixedPriority {
	checkK(k)
	return &FixedPriority{k: k}
}

// K implements Arbiter.
func (a *FixedPriority) K() int { return a.k }

// Pick implements Arbiter.
func (a *FixedPriority) Pick(req uint64, _ []uint8) int {
	return msb(req)
}

// msb returns the index of the most significant set bit, or -1.
func msb(x uint64) int { return bits.Len64(x) - 1 }

func checkK(k int) {
	if k < 1 || k > MaxInputs {
		panic("arbiter: input count out of range")
	}
}

// Kind names an arbiter flavor for experiment configuration.
type Kind uint8

// Arbiter flavors used in the experiments.
const (
	KindRoundRobin Kind = iota
	KindInverseWeighted
)

func (k Kind) String() string {
	if k == KindRoundRobin {
		return "round-robin"
	}
	return "inverse-weighted"
}

// kindNames are the short spellings command lines, requests and sweep cache
// keys use.
var kindNames = [...]string{KindRoundRobin: "rr", KindInverseWeighted: "iw"}

// Short returns the kind's short spelling, "rr" or "iw".
func (k Kind) Short() string { return kindNames[k] }

// KindByName resolves a short spelling, "rr" or "iw".
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}
