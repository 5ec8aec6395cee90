// Package fault provides a deterministic, seeded fault model for the
// simulated network, plus the pure go-back-N sender/receiver state machines
// the reliable channel's link layer (fabric.Channel.EnableLink) is built on.
//
// The paper assumes lossless channels; this package relaxes that assumption
// so the reproduction can be exercised under transient flit corruption,
// transient link stalls, permanent unidirectional link outages, and credit
// loss. All fault decisions are drawn from per-link SplitMix64 streams seeded
// from the experiment spec hash, so a sweep is bit-identical across serial
// and parallel runs and across repeated invocations.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The reliable-link protocol's parameters, the same on every link. A reliable
// channel derives its ack-progress timeout from its latency and StallCycles.
const (
	// Window is the go-back-N sliding window in frames.
	Window = 256
	// RetryLimit bounds how many times a sender may rewind while its window
	// base makes no progress before the link is declared dead and the run
	// fails with a BudgetError.
	RetryLimit = 16
	// StallCycles is the duration of one transient stall.
	StallCycles = 64
	// ResyncInterval is the period of the credit resync audit in cycles.
	ResyncInterval = 1024
)

// Spec configures the fault injector. The zero value means "no faults" but,
// attached to a machine config, still enables the go-back-N reliability
// layer on every torus link.
type Spec struct {
	// CorruptRate is the per-frame probability that a transmitted torus
	// frame is corrupted on the wire (detected by the receiver's CRC and
	// dropped, forcing a retransmission).
	CorruptRate float64
	// StallRate is the per-cycle, per-link probability that a healthy
	// torus link begins a transient stall of StallCycles cycles during
	// which it accepts no new frames.
	StallRate float64
	// CreditLossRate is the per-message probability that a credit return
	// on a torus link is dropped. Lost credits are restored by a periodic
	// resync audit every ResyncInterval cycles.
	CreditLossRate float64
	// FailLinks is the number of torus links taken permanently out of
	// service (unidirectional outages), chosen deterministically from the
	// seed. Traffic is rerouted around them at injection time.
	FailLinks int
}

// Validate rejects rates outside [0,1], non-finite rates, and negative
// counts.
func (s Spec) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"corrupt", s.CorruptRate},
		{"stall", s.StallRate},
		{"creditloss", s.CreditLossRate},
	}
	for _, r := range rates {
		if math.IsNaN(r.v) || math.IsInf(r.v, 0) {
			return fmt.Errorf("fault: %s rate must be finite, got %v", r.name, r.v)
		}
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s rate must be in [0,1], got %v", r.name, r.v)
		}
	}
	if s.FailLinks < 0 {
		return fmt.Errorf("fault: faillinks must be >= 0, got %d", s.FailLinks)
	}
	return nil
}

// Canonical renders the spec as a stable, order-fixed key=value string. It is
// embedded in experiment spec canonical forms (and hence cache keys, which
// address stored artifacts), so its format must never change: the five
// protocol tokens ParseSpec no longer accepts are still written, as the 0
// every stored spec holds.
func (s Spec) Canonical() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	parts := []string{
		"corrupt=" + g(s.CorruptRate),
		"stall=" + g(s.StallRate),
		"stallcycles=0",
		"creditloss=" + g(s.CreditLossRate),
		"faillinks=" + strconv.Itoa(s.FailLinks),
		"window=0",
		"retry=0",
		"timeout=0",
		"resync=0",
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated key=value fault spec, e.g.
// "corrupt=1e-3,faillinks=1,stall=1e-4". Recognized keys: corrupt, stall,
// creditloss, faillinks. The result is validated.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, part := range strings.Split(text, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return s, fmt.Errorf("fault: malformed spec element %q (want key=value)", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		var err error
		switch key {
		case "corrupt":
			s.CorruptRate, err = strconv.ParseFloat(val, 64)
		case "stall":
			s.StallRate, err = strconv.ParseFloat(val, 64)
		case "creditloss":
			s.CreditLossRate, err = strconv.ParseFloat(val, 64)
		case "faillinks":
			s.FailLinks, err = strconv.Atoi(val)
		default:
			return s, fmt.Errorf("fault: unknown spec key %q", key)
		}
		if err != nil {
			return s, fmt.Errorf("fault: bad value for %s: %v", key, err)
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// BudgetError reports a link whose retransmission retry budget was
// exhausted: the window base made no progress through RetryLimit rewinds.
// Runs that end this way are degraded, not panics.
type BudgetError struct {
	Link     string
	Attempts int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("fault: link %s exhausted retry budget after %d rewinds", e.Link, e.Attempts)
}

// Degraded marks the error as a graceful-degradation outcome for the
// experiment harness.
func (e *BudgetError) Degraded() bool { return true }

// Counters aggregates fault and reliability-protocol event counts for one
// machine. They feed telemetry reports and the faultsweep artifact.
type Counters struct {
	CorruptInjected uint64 // frames corrupted on the wire by the injector
	CorruptDetected uint64 // corrupted frames caught and dropped by the receiver CRC
	DupsDropped     uint64 // stale duplicate frames dropped by the receiver
	Retransmits     uint64 // frames resent by the go-back-N sender
	Acks            uint64 // cumulative acks sent by receivers
	Nacks           uint64 // nacks sent by receivers
	Timeouts        uint64 // sender timeout rewinds
	StallsInjected  uint64 // transient stall events started
	CreditsDropped  uint64 // credit-return messages dropped
	CreditsRestored uint64 // credits restored by the resync audit
	LinksFailed     uint64 // permanent link outages installed
	Rerouted        uint64 // packets rerouted by emergency avoidance (degradation)
	RoutedNative    uint64 // packets routed around failures by a fault-aware strategy
	Unroutable      uint64 // packets with no failure-avoiding route
}

// Add accumulates another set of counters into c. The machine's fault layer
// counts injector events itself and each reliable channel its own protocol
// events; Add sums them when reporting.
func (c *Counters) Add(o Counters) {
	from := o.words()
	for i, w := range c.words() {
		*w += *from[i]
	}
}

// Map returns the counters as a name->value map with stable JSON ordering
// (encoding/json sorts map keys).
func (c *Counters) Map() map[string]uint64 {
	return map[string]uint64{
		"corrupt_injected": c.CorruptInjected,
		"corrupt_detected": c.CorruptDetected,
		"dups_dropped":     c.DupsDropped,
		"retransmits":      c.Retransmits,
		"acks":             c.Acks,
		"nacks":            c.Nacks,
		"timeouts":         c.Timeouts,
		"stalls_injected":  c.StallsInjected,
		"credits_dropped":  c.CreditsDropped,
		"credits_restored": c.CreditsRestored,
		"links_failed":     c.LinksFailed,
		"rerouted":         c.Rerouted,
		"routed_native":    c.RoutedNative,
		"unroutable":       c.Unroutable,
	}
}

// sortedInts returns a sorted copy of xs (small helper for deterministic
// failed-link reporting).
func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
