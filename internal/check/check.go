// Package check is the runtime-verification layer of the cycle simulator: one
// Suite that the machine calls at six packet-lifecycle hooks (inject, clone,
// send, deliver, free, multicast inject), scans with every ScanInterval
// cycles and finishes once, recording violations of the five invariants the
// paper's correctness arguments rest on: flit conservation, credit accounting
// (Section 2.1), monotonic VC promotion (Section 2.5), dimension-order
// progress, and exactly-once multicast delivery (Section 2.3).
//
// The package does not import internal/machine (machine imports check); the
// machine exposes its state through Env and the fabric channel accessors.
// When checking is disabled the machine holds a nil Suite and every hook site
// is a single predicted branch, so verified and unverified runs execute
// identical simulations.
//
// The suite assumes nothing about threads. Inject, clone, send and free hooks
// run on whichever shard worker ticks the component: what they keep per
// packet lives on the packet (packet.Packet.SeenMVC/SeenTVC/SeenDim), which
// the ticking component owns; the conservation ledger is atomic counters; and
// violations are recorded under a mutex. Deliver and multicast-inject hooks,
// scans and Finish run on the stepping goroutine between or after phases, so
// the multicast tables are plain maps.
package check

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"anton2/internal/fabric"
	"anton2/internal/multicast"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
)

const (
	// ScanInterval is the cycle period of whole-machine scans (credit
	// bounds, conservation census); one more always runs at Finish.
	ScanInterval = 64
	// MaxViolations bounds the violations retained verbatim; further
	// failures are counted but not stored.
	MaxViolations = 16
)

// The invariants, as Violation.Checker names them.
const (
	conservation = "conservation"
	credits      = "credits"
	vcMonotone   = "vc-monotone"
	dimOrder     = "dim-order"
	mcastOnce    = "multicast-once"
)

// Violation is one recorded invariant failure.
type Violation struct {
	Cycle   uint64
	Checker string
	Msg     string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s", v.Cycle, v.Checker, v.Msg)
}

// less orders violations by (cycle, checker, message): an order that does not
// depend on which shard worker reported first.
func (v Violation) less(o Violation) bool {
	if v.Cycle != o.Cycle {
		return v.Cycle < o.Cycle
	}
	if v.Checker != o.Checker {
		return v.Checker < o.Checker
	}
	return v.Msg < o.Msg
}

// Env exposes the checked machine's state to the suite.
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

// mkey identifies one (group, destination endpoint) multicast obligation.
type mkey struct {
	group, node, ep int
}

// Suite verifies the five invariants over one machine and collects their
// violations.
type Suite struct {
	env Env

	// The conservation ledger: at every scan,
	// injected + cloned == delivered + freed + queued + in-flight.
	injected, cloned, delivered, freed atomic.Uint64

	// Exactly-once multicast: deliveries owed and seen per (group,
	// destination). Only the stepping goroutine touches them.
	expected, got map[mkey]int

	mu     sync.Mutex
	varr   []Violation
	vcount int
	least  Violation
}

// NewSuite builds the suite over the given environment.
func NewSuite(env Env) *Suite {
	return &Suite{env: env, expected: map[mkey]int{}, got: map[mkey]int{}}
}

func (s *Suite) violate(checker string, now uint64, format string, args ...any) {
	v := Violation{Cycle: now, Checker: checker, Msg: fmt.Sprintf(format, args...)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vcount == 0 || v.less(s.least) {
		s.least = v
	}
	s.vcount++
	if len(s.varr) < MaxViolations {
		s.varr = append(s.varr, v)
	}
}

// Violations returns the retained violations (the first MaxViolations
// recorded; within one parallel cycle that order is the workers').
func (s *Suite) Violations() []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.varr
}

// ViolationCount returns the total violations seen, including unretained.
func (s *Suite) ViolationCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vcount
}

// Err returns nil when no invariant failed, or an error naming the total
// count and the least violation by (cycle, checker, message) — the same one
// however the machine was sharded.
func (s *Suite) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vcount == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s); first: %s", s.vcount, s.least)
}

// stamp records the packet's promotion state and dimension-order position as
// last seen.
func stamp(p *packet.Packet) {
	p.SeenMVC, p.SeenTVC, p.SeenDim = p.Route.MVC, p.Route.TVC, p.Route.DimIdx
}

// OnInject observes a packet entering an injection queue.
func (s *Suite) OnInject(p *packet.Packet, now uint64) {
	s.injected.Add(1)
	stamp(p)
}

// OnClone observes a fresh multicast branch copy.
func (s *Suite) OnClone(p *packet.Packet, now uint64) {
	s.cloned.Add(1)
	stamp(p)
}

// OnSend observes a packet forwarded onto a channel. The sender's credit
// never goes negative across a send. For a packet routed by route state
// (source-routed packets bypass it), Section 2.5's proof obligation holds —
// the M-group and T-group VC counters never decrease, stay below the scheme's
// per-class VC counts, and the physical VC fits the channel — and so does
// dimension-order progress: the position never moves backward, and every
// inter-node hop is on a channel of the dimension and direction the route
// state claims to be traveling.
func (s *Suite) OnSend(p *packet.Packet, ch *fabric.Channel, vc uint8, now uint64) {
	if int(vc) < ch.NumVCs() && ch.Credits(vc) < 0 {
		s.violate(credits, now, "channel %s vc %d credit went negative (%d) on send of packet %d",
			ch.Name, vc, ch.Credits(vc), p.ID)
	}
	if p.SourceRoute != nil {
		return
	}
	st := &p.Route

	scheme := s.env.Route.Scheme
	if int(st.MVC) >= scheme.MeshVCs() {
		s.violate(vcMonotone, now, "packet %d M-VC %d exceeds scheme bound %d (scheme %s)",
			p.ID, st.MVC, scheme.MeshVCs()-1, scheme.Name())
	}
	if int(st.TVC) >= scheme.TorusVCs() {
		s.violate(vcMonotone, now, "packet %d T-VC %d exceeds scheme bound %d (scheme %s)",
			p.ID, st.TVC, scheme.TorusVCs()-1, scheme.Name())
	}
	if int(vc) >= ch.NumVCs() {
		s.violate(vcMonotone, now, "packet %d sent on %s vc %d, channel has %d VCs",
			p.ID, ch.Name, vc, ch.NumVCs())
	}
	if st.MVC < p.SeenMVC {
		s.violate(vcMonotone, now, "packet %d M-VC demoted %d -> %d on %s", p.ID, p.SeenMVC, st.MVC, ch.Name)
	}
	if st.TVC < p.SeenTVC {
		s.violate(vcMonotone, now, "packet %d T-VC demoted %d -> %d on %s", p.ID, p.SeenTVC, st.TVC, ch.Name)
	}

	if st.DimIdx < p.SeenDim {
		s.violate(dimOrder, now, "packet %d dimension-order position moved backward %d -> %d (revisits a completed dimension)",
			p.ID, p.SeenDim, st.DimIdx)
	}
	if st.DimIdx > topo.NumDims {
		s.violate(dimOrder, now, "packet %d dimension-order position %d out of range", p.ID, st.DimIdx)
	}
	if tm := s.env.Route.Machine; ch.ID >= 0 && tm.IsTorusChan(ch.ID) {
		if int(st.DimIdx) >= topo.NumDims {
			s.violate(dimOrder, now, "packet %d took torus hop on %s after completing all dimensions", p.ID, ch.Name)
		} else {
			if want := st.DimOrder[st.DimIdx]; st.Dir.Dim() != want {
				s.violate(dimOrder, now, "packet %d traveling %v but dimension order says dim %v is next",
					p.ID, st.Dir, want)
			}
			if _, ad := tm.TorusChanOf(ch.ID); ad.Dir != st.Dir {
				s.violate(dimOrder, now, "packet %d claims direction %v but was sent on torus channel %s",
					p.ID, st.Dir, ch.Name)
			}
		}
	}
	stamp(p)
}

// OnDeliver observes a packet accepted at its destination endpoint; a
// multicast copy beyond the group's table is flagged at once.
func (s *Suite) OnDeliver(p *packet.Packet, now uint64) {
	s.delivered.Add(1)
	if p.MGroup < 0 {
		return
	}
	k := mkey{group: p.MGroup, node: p.Dst.Node, ep: p.Dst.Ep}
	s.got[k]++
	if s.got[k] > s.expected[k] {
		s.violate(mcastOnce, now, "multicast group %d delivered %d copies to node %d ep %d, expected %d",
			k.group, s.got[k], k.node, k.ep, s.expected[k])
	}
}

// OnFree observes a packet released without delivery (a consumed multicast
// original).
func (s *Suite) OnFree(p *packet.Packet, now uint64) { s.freed.Add(1) }

// OnMulticastInject observes a multicast group injection at its root: every
// table destination is owed one more delivery.
func (s *Suite) OnMulticastInject(group int, g *multicast.Compiled, now uint64) {
	for node, e := range g.Entries {
		for _, ep := range e.Deliver {
			s.expected[mkey{group: group, node: node, ep: ep}]++
		}
	}
}

// Observe is the suite's engine observer (sim.Engine.Observe, first deadline
// 1): the clock has arrived at now, so cycle now-1 just completed; it scans
// the machine as of that cycle and asks to run again ScanInterval cycles on —
// completed cycles 0, ScanInterval, 2*ScanInterval, ...
func (s *Suite) Observe(now uint64) (next uint64) {
	s.scan(now - 1)
	return now + ScanInterval
}

// live is the ledger's count of packets that exist.
func (s *Suite) live() int64 {
	return int64(s.injected.Load()) + int64(s.cloned.Load()) - int64(s.delivered.Load()) - int64(s.freed.Load())
}

// scan checks the whole machine between steps: the ledger against a census
// of queues and channels, and every sender-side credit counter against
// [0, BufFlits].
func (s *Suite) scan(now uint64) {
	census := int64(s.env.Queued())
	for _, ch := range s.env.Channels {
		// Census-exempt channels (reliable links under fault injection)
		// may hold duplicate transmissions of one logical packet; their
		// retransmission windows are accounted in Queued instead.
		if !ch.CensusExempt {
			census += int64(ch.InFlight())
		}
	}
	if live := s.live(); live != census {
		s.violate(conservation, now,
			"ledger has %d live packets (injected %d + cloned %d - delivered %d - freed %d) but census found %d (queued + channel in-flight)",
			live, s.injected.Load(), s.cloned.Load(), s.delivered.Load(), s.freed.Load(), census)
	}
	for _, ch := range s.env.Channels {
		for vc := 0; vc < ch.NumVCs(); vc++ {
			cr := ch.Credits(uint8(vc))
			if cr < 0 {
				s.violate(credits, now, "channel %s vc %d has negative credit %d", ch.Name, vc, cr)
			} else if cr > ch.BufFlits() {
				s.violate(credits, now, "channel %s vc %d has credit %d above buffer capacity %d",
					ch.Name, vc, cr, ch.BufFlits())
			}
		}
	}
}

// Finish runs a final scan and, when the network fully drained first
// (quiesced: no queued or in-flight packets, all credits returned), the
// end-of-run checks: every packet accounted for, every credit counter back at
// BufFlits (an excess is the scan's to report), every multicast delivery made.
func (s *Suite) Finish(now uint64, quiesced bool) {
	s.scan(now)
	if !quiesced {
		return
	}
	if live := s.live(); live != 0 {
		s.violate(conservation, now,
			"network quiesced with %d packets unaccounted for (injected %d + cloned %d, delivered %d, freed %d)",
			live, s.injected.Load(), s.cloned.Load(), s.delivered.Load(), s.freed.Load())
	}
	for _, ch := range s.env.Channels {
		for vc := 0; vc < ch.NumVCs(); vc++ {
			if cr := ch.Credits(uint8(vc)); cr < ch.BufFlits() {
				s.violate(credits, now,
					"channel %s vc %d drained with credit %d, want full buffer %d (credit leak)",
					ch.Name, vc, cr, ch.BufFlits())
			}
		}
	}
	var missing []mkey
	for k, want := range s.expected {
		if s.got[k] < want {
			missing = append(missing, k)
		}
	}
	sort.Slice(missing, func(i, j int) bool {
		a, b := missing[i], missing[j]
		if a.group != b.group {
			return a.group < b.group
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.ep < b.ep
	})
	for _, k := range missing {
		s.violate(mcastOnce, now, "multicast group %d delivered %d copies to node %d ep %d, expected %d (missing deliveries)",
			k.group, s.got[k], k.node, k.ep, s.expected[k])
	}
}
