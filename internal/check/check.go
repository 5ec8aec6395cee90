// Package check is a pluggable runtime-verification layer for the cycle
// simulator. A Suite of Checkers observes the machine through narrow event
// hooks (inject, clone, send, deliver, free) plus periodic whole-machine
// scans, and records violations of the invariants the paper's correctness
// arguments rest on: flit conservation, credit accounting, monotonic VC
// promotion (Section 2.5), dimension-order progress, and exactly-once
// multicast delivery (Section 2.3).
//
// The package deliberately does not import internal/machine (machine imports
// check); the machine side exposes its state through the Env closure and the
// fabric channel accessors. When checking is disabled the machine holds a nil
// Suite and every hook site is a single predicted branch, so verified and
// unverified runs execute identical simulations.
package check

import (
	"fmt"

	"anton2/internal/fabric"
	"anton2/internal/multicast"
	"anton2/internal/packet"
	"anton2/internal/route"
)

// Event identifies a packet lifecycle observation.
type Event uint8

// Packet lifecycle events, in the order they can occur.
const (
	// EvInject: the packet entered an endpoint adapter's injection queue.
	EvInject Event = iota
	// EvClone: the packet is a fresh multicast branch copy.
	EvClone
	// EvSend: the packet was forwarded onto a channel (ch and vc are set).
	EvSend
	// EvDeliver: the destination endpoint accepted the packet.
	EvDeliver
	// EvFree: the packet was released without delivery (a consumed
	// multicast original).
	EvFree
)

func (e Event) String() string {
	return [...]string{"inject", "clone", "send", "deliver", "free"}[e]
}

// Violation is one recorded invariant failure.
type Violation struct {
	Cycle   uint64
	Checker string
	Msg     string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s", v.Cycle, v.Checker, v.Msg)
}

// Env exposes the checked machine's state to the checkers.
type Env struct {
	// Route is the machine's routing configuration (scheme, shape, skip
	// policy).
	Route *route.Config
	// Channels lists every fabric channel, indexed by global channel id.
	Channels []*fabric.Channel
	// Queued returns the machine-wide count of packets held in component
	// queues (router VC queues, adapter queues and pending multicast
	// branches, endpoint injection queues). Together with the channels'
	// in-flight counts it forms the conservation census.
	Queued func() int
}

// Checker verifies one invariant. Event is called on the hot path for every
// packet lifecycle event; Scan periodically with the machine otherwise idle
// within the cycle; Finish once at the end of the run. quiesced reports
// whether the network fully drained (no queued or in-flight packets, all
// credits returned) before Finish.
type Checker interface {
	Name() string
	Event(s *Suite, ev Event, p *packet.Packet, ch *fabric.Channel, vc uint8, now uint64)
	Scan(s *Suite, now uint64)
	Finish(s *Suite, now uint64, quiesced bool)
}

// MulticastObserver is implemented by checkers that track multicast group
// injections.
type MulticastObserver interface {
	MulticastInject(s *Suite, group int, g *multicast.Compiled, now uint64)
}

// NopChecker implements Checker with no-ops, for embedding.
type NopChecker struct{}

// Event implements Checker.
func (NopChecker) Event(*Suite, Event, *packet.Packet, *fabric.Channel, uint8, uint64) {}

// Scan implements Checker.
func (NopChecker) Scan(*Suite, uint64) {}

// Finish implements Checker.
func (NopChecker) Finish(*Suite, uint64, bool) {}

// Options tunes a Suite.
type Options struct {
	// ScanInterval is the cycle period of whole-machine scans (credit
	// bounds, conservation census). 0 means the default of 64; scans also
	// always run at Finish.
	ScanInterval uint64
	// MaxViolations bounds the violations retained verbatim; further
	// failures are counted but not stored. 0 means the default of 16.
	MaxViolations int
}

// Suite fans machine events out to its checkers and collects violations.
type Suite struct {
	env  Env
	opts Options

	checkers  []Checker
	mobs      []MulticastObserver
	varr      []Violation
	vcount    int
	circulate int
}

// NewSuite builds a suite over the given environment. With no checkers it
// uses Standard(env).
func NewSuite(env Env, opts Options, checkers ...Checker) *Suite {
	if opts.ScanInterval == 0 {
		opts.ScanInterval = 64
	}
	if opts.MaxViolations == 0 {
		opts.MaxViolations = 16
	}
	if len(checkers) == 0 {
		checkers = Standard(env)
	}
	s := &Suite{env: env, opts: opts, checkers: checkers}
	for _, c := range checkers {
		if mo, ok := c.(MulticastObserver); ok {
			s.mobs = append(s.mobs, mo)
		}
	}
	return s
}

// Standard returns the five paper-invariant checkers.
func Standard(env Env) []Checker {
	return []Checker{
		newConservation(env),
		newCredits(env),
		newVCMono(env),
		newDimOrder(env),
		newMcastOnce(env),
	}
}

// Env returns the suite's environment.
func (s *Suite) Env() Env { return s.env }

// Violate records an invariant failure.
func (s *Suite) Violate(checker string, now uint64, format string, args ...any) {
	s.vcount++
	if len(s.varr) < s.opts.MaxViolations {
		s.varr = append(s.varr, Violation{Cycle: now, Checker: checker, Msg: fmt.Sprintf(format, args...)})
	}
}

// Violations returns the retained violations (capped at MaxViolations).
func (s *Suite) Violations() []Violation { return s.varr }

// ViolationCount returns the total violations seen, including unretained.
func (s *Suite) ViolationCount() int { return s.vcount }

// Err returns nil when no invariant failed, or an error naming the first
// violation and the total count.
func (s *Suite) Err() error {
	if s.vcount == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s); first: %s", s.vcount, s.varr[0])
}

// OnInject observes a packet entering an injection queue. Packets marked
// Circulate are accounted as permanently in flight.
func (s *Suite) OnInject(p *packet.Packet, now uint64) {
	if p.Circulate {
		s.circulate++
	}
	s.event(EvInject, p, nil, 0, now)
}

// OnClone observes a fresh multicast branch copy.
func (s *Suite) OnClone(p *packet.Packet, now uint64) { s.event(EvClone, p, nil, 0, now) }

// OnSend observes a packet forwarded onto a channel.
func (s *Suite) OnSend(p *packet.Packet, ch *fabric.Channel, vc uint8, now uint64) {
	s.event(EvSend, p, ch, vc, now)
}

// OnDeliver observes a packet accepted at its destination endpoint.
func (s *Suite) OnDeliver(p *packet.Packet, now uint64) { s.event(EvDeliver, p, nil, 0, now) }

// OnFree observes a packet released without delivery.
func (s *Suite) OnFree(p *packet.Packet, now uint64) { s.event(EvFree, p, nil, 0, now) }

// OnMulticastInject observes a multicast group injection at its root.
func (s *Suite) OnMulticastInject(group int, g *multicast.Compiled, now uint64) {
	for _, mo := range s.mobs {
		mo.MulticastInject(s, group, g, now)
	}
}

func (s *Suite) event(ev Event, p *packet.Packet, ch *fabric.Channel, vc uint8, now uint64) {
	for _, c := range s.checkers {
		c.Event(s, ev, p, ch, vc, now)
	}
}

// Observe is the suite's engine observer (sim.Engine.Observe, first deadline
// 1): the clock has arrived at now, so cycle now-1 just completed; it scans
// the machine as of that cycle and asks to run again ScanInterval cycles on —
// completed cycles 0, ScanInterval, 2*ScanInterval, ...
func (s *Suite) Observe(now uint64) (next uint64) {
	s.scan(now - 1)
	return now + s.opts.ScanInterval
}

func (s *Suite) scan(now uint64) {
	for _, c := range s.checkers {
		c.Scan(s, now)
	}
}

// Circulating returns the count of injected packets that loop forever and
// therefore can never drain.
func (s *Suite) Circulating() int { return s.circulate }

// Finish runs a final scan and the end-of-run checks. quiesced reports that
// the network fully drained first.
func (s *Suite) Finish(now uint64, quiesced bool) {
	s.scan(now)
	for _, c := range s.checkers {
		c.Finish(s, now, quiesced)
	}
}
