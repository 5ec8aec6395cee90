// Package arbiter implements the arbitration logic of the Anton 2 network:
// locally fair round-robin arbiters, the optimized prioritized arbiter of
// Figure 8 (thermometer-encoded round-robin with a parallel-prefix
// fixed-priority rule), the accumulator update logic of Figure 6, and the
// inverse-weighted arbiter of Section 3 that provides equality of service
// from precomputed per-traffic-pattern loads.
package arbiter

import "math/bits"

// maxInputs bounds arbiter width so request vectors fit in a uint64.
const maxInputs = 64

// Arbiter is one arbitration point: it selects one requester per Pick and
// updates its fairness state. It is either a locally fair round-robin
// arbiter, which grants the next requesting input after the most recently
// granted one (building the network entirely from these is the paper's
// baseline, which exhibits significant global unfairness beyond saturation,
// Section 3, Figure 9), or the inverse-weighted arbiter of Section 3, which
// provides equality of service from precomputed per-pattern inverse weights
// (iw.go). It is a value: a component holds its arbiters inline, and Init
// builds one in place. A round-robin arbiter is 16 bytes; what only the
// inverse-weighted flavor keeps lives in a Weighted record beside it.
type Arbiter struct {
	k    uint8
	next uint8 // round-robin: the highest-precedence input

	// iw is the inverse-weighted state, nil on a round-robin arbiter.
	iw *Weighted
}

// Weighted is what an inverse-weighted arbiter keeps beyond a round-robin
// one: the per-input per-pattern inverse weights, one accumulator per input
// and the thermometer-encoded round-robin tie-break. A machine carves these
// records from its arena only when its arbiters are inverse-weighted.
type Weighted struct {
	rrTherm uint64
	weights [][NumPatterns]uint32
	accum   []uint32
}

// Init makes a a fresh arbiter over k inputs: round-robin when iw is nil,
// else inverse-weighted with its state in iw (zero), over the given
// per-input per-pattern inverse weights (len k, each < 2^inverseWeightBits)
// and keeping its accumulators in accum (len k, zeroed).
func (a *Arbiter) Init(k int, iw *Weighted, weights [][NumPatterns]uint32, accum []uint32) {
	checkK(k)
	*a = Arbiter{k: uint8(k)}
	if iw == nil {
		return
	}
	if len(weights) != k || len(accum) != k {
		panic("arbiter: weight table size mismatch")
	}
	for _, w := range weights {
		for _, m := range w {
			if m >= 1<<inverseWeightBits {
				panic("arbiter: inverse weight exceeds M bits")
			}
		}
	}
	*iw = Weighted{rrTherm: uint64(1)<<uint(k) - 1, weights: weights, accum: accum}
	a.iw = iw
}

// NewRoundRobin returns a round-robin arbiter over k inputs.
func NewRoundRobin(k int) *Arbiter {
	a := new(Arbiter)
	a.Init(k, nil, nil, nil)
	return a
}

// NewInverseWeighted returns an inverse-weighted arbiter over k inputs with
// the given per-input per-pattern inverse weights.
func NewInverseWeighted(k int, weights [][NumPatterns]uint32) *Arbiter {
	a := new(Arbiter)
	a.Init(k, new(Weighted), weights, make([]uint32, k))
	return a
}

// Pick returns the granted input index, or -1 if req is empty. req is a
// bitmask of requesting inputs. pats[i] holds the traffic-pattern id of
// input i's candidate packet (consulted only by an inverse-weighted arbiter
// and only for the granted input); it may be nil when the caller has no
// pattern labels.
func (a *Arbiter) Pick(req uint64, pats []uint8) int {
	if a.iw != nil {
		return a.pickWeighted(req, pats)
	}
	r := req & (uint64(1)<<a.k - 1)
	if r == 0 {
		return -1
	}
	i := bits.TrailingZeros64(r)
	if hi := r >> a.next << a.next; hi != 0 {
		i = bits.TrailingZeros64(hi)
	}
	if a.next = uint8(i + 1); a.next == a.k {
		a.next = 0
	}
	return i
}

// msb returns the index of the most significant set bit, or -1.
func msb(x uint64) int { return bits.Len64(x) - 1 }

func checkK(k int) {
	if k < 1 || k > maxInputs {
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
