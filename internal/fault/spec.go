// Package fault provides a deterministic, seeded fault model for the
// simulated network, plus the pure go-back-N sender/receiver state machines
// the machine's reliable-link layer is built on.
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

// Default protocol parameters, applied by Normalized when the spec leaves
// them zero.
const (
	DefaultWindow      = 256
	DefaultRetryLimit  = 16
	DefaultStallCycles = 64
	DefaultResync      = 1024
)

// Spec configures the fault injector and the reliable-link protocol. The
// zero value means "no faults" but, attached to a machine config, still
// enables the go-back-N reliability layer on every torus link.
type Spec struct {
	// CorruptRate is the per-frame probability that a transmitted torus
	// frame is corrupted on the wire (detected by the receiver's CRC and
	// dropped, forcing a retransmission).
	CorruptRate float64
	// StallRate is the per-cycle, per-link probability that a healthy
	// torus link begins a transient stall of StallCycles cycles during
	// which it accepts no new frames.
	StallRate float64
	// StallCycles is the duration of one transient stall.
	StallCycles uint64
	// CreditLossRate is the per-message probability that a credit return
	// on a torus link is dropped. Lost credits are restored by a periodic
	// resync audit every ResyncInterval cycles.
	CreditLossRate float64
	// FailLinks is the number of torus links taken permanently out of
	// service (unidirectional outages), chosen deterministically from the
	// seed. Traffic is rerouted around them at injection time.
	FailLinks int
	// Window is the go-back-N sliding window in frames (default 256).
	Window int
	// RetryLimit bounds how many times the sender may rewind while its
	// window base makes no progress before the link is declared dead and
	// the run fails with a BudgetError (default 16).
	RetryLimit int
	// TimeoutCycles is the ack-progress timeout before the sender rewinds
	// to its window base. Zero derives a default from the link latency.
	TimeoutCycles uint64
	// ResyncInterval is the period of the credit resync audit in cycles
	// (default 1024).
	ResyncInterval uint64
}

// Normalized returns the spec with protocol defaults filled in.
func (s Spec) Normalized() Spec {
	if s.Window <= 0 {
		s.Window = DefaultWindow
	}
	if s.RetryLimit <= 0 {
		s.RetryLimit = DefaultRetryLimit
	}
	if s.StallCycles == 0 {
		s.StallCycles = DefaultStallCycles
	}
	if s.ResyncInterval == 0 {
		s.ResyncInterval = DefaultResync
	}
	return s
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
	if s.Window < 0 {
		return fmt.Errorf("fault: window must be >= 0, got %d", s.Window)
	}
	if s.RetryLimit < 0 {
		return fmt.Errorf("fault: retry must be >= 0, got %d", s.RetryLimit)
	}
	return nil
}

// Active reports whether the spec injects any fault at all (as opposed to
// only running the reliability protocol fault-free).
func (s Spec) Active() bool {
	return s.CorruptRate > 0 || s.StallRate > 0 || s.CreditLossRate > 0 || s.FailLinks > 0
}

// Canonical renders the spec as a stable, order-fixed key=value string. It is
// embedded in experiment spec canonical forms (and hence cache keys), so its
// format must never change for a given field set.
func (s Spec) Canonical() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	parts := []string{
		"corrupt=" + g(s.CorruptRate),
		"stall=" + g(s.StallRate),
		"stallcycles=" + strconv.FormatUint(s.StallCycles, 10),
		"creditloss=" + g(s.CreditLossRate),
		"faillinks=" + strconv.Itoa(s.FailLinks),
		"window=" + strconv.Itoa(s.Window),
		"retry=" + strconv.Itoa(s.RetryLimit),
		"timeout=" + strconv.FormatUint(s.TimeoutCycles, 10),
		"resync=" + strconv.FormatUint(s.ResyncInterval, 10),
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated key=value fault spec, e.g.
// "corrupt=1e-3,faillinks=1,stall=1e-4,stallcycles=32". Recognized keys:
// corrupt, stall, stallcycles, creditloss, faillinks, window, retry,
// timeout, resync. The result is validated but not normalized.
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
		case "stallcycles":
			s.StallCycles, err = strconv.ParseUint(val, 10, 64)
		case "timeout":
			s.TimeoutCycles, err = strconv.ParseUint(val, 10, 64)
		case "resync":
			s.ResyncInterval, err = strconv.ParseUint(val, 10, 64)
		case "faillinks":
			s.FailLinks, err = strconv.Atoi(val)
		case "window":
			s.Window, err = strconv.Atoi(val)
		case "retry":
			s.RetryLimit, err = strconv.Atoi(val)
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

// Add accumulates another set of counters into c. The machine layer keeps
// per-shard counter slots so parallel shards never contend, and sums them
// with Add when reporting.
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
