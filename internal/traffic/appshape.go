package traffic

// This file holds the application-shaped generator: temporal burstiness.
// Unlike the synthetic patterns in traffic.go it is stateful, so it is
// deliberately excluded from the saturation-analysis pattern lists; the
// workload layer and the experiment family that use it reason about time, not
// steady-state rate.

import (
	"fmt"
	"math/rand"
	"sync"

	"anton2/internal/loadcalc"
	"anton2/internal/topo"
)

// Bursty wraps an inner pattern with temporal burstiness: each source sends
// runs of packets to one destination, re-drawing from the inner pattern with
// probability 1/Len per packet, so bursts have geometric length with mean
// Len. The marginal destination distribution is exactly the inner pattern's
// (every draw is an unconditioned inner sample), so Flows delegates to Inner
// and stays valid for load computation.
//
// Burst state is tracked per source rng. The machine gives every (job,
// source) pair its own *rand.Rand, so keying on the rng pointer keeps
// concurrent jobs that share one Bursty value independent; the state map is
// mutex-guarded for that case. Use one Bursty per run where possible.
type Bursty struct {
	Inner Pattern
	Len   int // mean burst length in packets (values < 2 disable bursting)

	mu    sync.Mutex
	state map[*rand.Rand]topo.NodeEp
}

// NewBursty wraps inner (nil = Uniform) with mean burst length meanLen.
func NewBursty(inner Pattern, meanLen int) *Bursty {
	if inner == nil {
		inner = Uniform{}
	}
	return &Bursty{Inner: inner, Len: meanLen}
}

// Name implements Pattern.
func (b *Bursty) Name() string { return fmt.Sprintf("bursty%d-%s", b.Len, b.Inner.Name()) }

// Dest implements Pattern.
func (b *Bursty) Dest(m *topo.Machine, src topo.NodeEp, rng *rand.Rand) topo.NodeEp {
	if b.Len < 2 {
		return b.Inner.Dest(m, src, rng)
	}
	b.mu.Lock()
	dst, inBurst := b.state[rng]
	b.mu.Unlock()
	// Continue the current burst with probability (Len-1)/Len.
	if inBurst && rng.Float64()*float64(b.Len) >= 1 {
		return dst
	}
	dst = b.Inner.Dest(m, src, rng)
	b.mu.Lock()
	if b.state == nil {
		b.state = make(map[*rand.Rand]topo.NodeEp)
	}
	b.state[rng] = dst
	b.mu.Unlock()
	return dst
}

// Flows implements Pattern. Bursting reorders packets in time but leaves the
// destination distribution unchanged.
func (b *Bursty) Flows(m *topo.Machine) loadcalc.FlowFunc { return b.Inner.Flows(m) }
