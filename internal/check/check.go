// Package check is the runtime-verification layer of the cycle simulator: one
// Suite that the machine calls at six packet-lifecycle hooks (inject, clone,
// send, deliver, free, multicast inject), scans with every scanInterval
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
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"anton2/internal/fabric"
	"anton2/internal/multicast"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/wire"
)

// scanInterval is the cycle period of whole-machine scans (credit bounds,
// conservation census); one more always runs at Finish.
const scanInterval = 64

// The invariants, as violation.Checker names them.
const (
	conservation = "conservation"
	credits      = "credits"
	vcMonotone   = "vc-monotone"
	dimOrder     = "dim-order"
	mcastOnce    = "multicast-once"
)

// violation is one recorded invariant failure.
type violation struct {
	Cycle   uint64
	Checker string
	Msg     string
}

func (v violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s", v.Cycle, v.Checker, v.Msg)
}

// less orders violations by (cycle, checker, message): an order that does not
// depend on which shard worker reported first.
func (v violation) less(o violation) bool {
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
	Channels []fabric.Channel
	// Queued returns the machine-wide count of packets held in component
	// packet lists (router and adapter VC queues, pending multicast
	// branches, endpoint injection queues; not the free lists). Together
	// with the channels' in-flight counts it forms the conservation census.
	Queued func() int
}

// mkey identifies one (group, destination endpoint) multicast obligation.
type mkey struct {
	group, node, ep int
}

// mcount is what a multicast key is owed and has been delivered.
type mcount struct{ owed, got int }

func (k mkey) cmp(o mkey) int {
	return cmp.Or(cmp.Compare(k.group, o.group), cmp.Compare(k.node, o.node), cmp.Compare(k.ep, o.ep))
}

// Suite verifies the five invariants over one machine and collects their
// violations.
type Suite struct {
	env Env

	// The conservation ledger: at every scan,
	// injected + cloned == delivered + freed + queued + in-flight.
	injected, cloned, delivered, freed atomic.Uint64

	// Exactly-once multicast: copies owed and delivered per (group,
	// destination). Only the stepping goroutine touches it.
	mcast map[mkey]mcount

	mu     sync.Mutex
	vcount int
	least  violation
}

// NewSuite builds the suite over the given environment.
func NewSuite(env Env) *Suite {
	return &Suite{env: env, mcast: map[mkey]mcount{}}
}

func (s *Suite) violate(checker string, now uint64, format string, args ...any) {
	v := violation{Cycle: now, Checker: checker, Msg: fmt.Sprintf(format, args...)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vcount == 0 || v.less(s.least) {
		s.least = v
	}
	s.vcount++
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
		s.violate(credits, now, "channel %s vc %d credit went negative (%d) on send of packet %v",
			ch.Name(s.env.Route.Machine), vc, ch.Credits(vc), p)
	}
	if p.SourceRoute != nil {
		return
	}
	st := &p.Route

	scheme := s.env.Route.Scheme
	if int(st.MVC) >= scheme.MeshVCs() {
		s.violate(vcMonotone, now, "packet %v M-VC %d exceeds scheme bound %d (scheme %s)",
			p, st.MVC, scheme.MeshVCs()-1, scheme.Name())
	}
	if int(st.TVC) >= scheme.TorusVCs() {
		s.violate(vcMonotone, now, "packet %v T-VC %d exceeds scheme bound %d (scheme %s)",
			p, st.TVC, scheme.TorusVCs()-1, scheme.Name())
	}
	if int(vc) >= ch.NumVCs() {
		s.violate(vcMonotone, now, "packet %v sent on %s vc %d, channel has %d VCs",
			p, ch.Name(s.env.Route.Machine), vc, ch.NumVCs())
	}
	if st.MVC < p.SeenMVC {
		s.violate(vcMonotone, now, "packet %v M-VC demoted %d -> %d on %s", p, p.SeenMVC, st.MVC, ch.Name(s.env.Route.Machine))
	}
	if st.TVC < p.SeenTVC {
		s.violate(vcMonotone, now, "packet %v T-VC demoted %d -> %d on %s", p, p.SeenTVC, st.TVC, ch.Name(s.env.Route.Machine))
	}

	if st.DimIdx < p.SeenDim {
		s.violate(dimOrder, now, "packet %v dimension-order position moved backward %d -> %d (revisits a completed dimension)",
			p, p.SeenDim, st.DimIdx)
	}
	if st.DimIdx > topo.NumDims {
		s.violate(dimOrder, now, "packet %v dimension-order position %d out of range", p, st.DimIdx)
	}
	if tm := s.env.Route.Machine; ch.ID >= 0 && tm.IsTorusChan(int(ch.ID)) {
		if int(st.DimIdx) >= topo.NumDims {
			s.violate(dimOrder, now, "packet %v took torus hop on %s after completing all dimensions", p, ch.Name(s.env.Route.Machine))
		} else {
			if want := st.DimOrder[st.DimIdx]; st.Dir.Dim() != want {
				s.violate(dimOrder, now, "packet %v traveling %v but dimension order says dim %v is next",
					p, st.Dir, want)
			}
			if _, ad := tm.TorusChanOf(int(ch.ID)); ad.Dir != st.Dir {
				s.violate(dimOrder, now, "packet %v claims direction %v but was sent on torus channel %s",
					p, st.Dir, ch.Name(s.env.Route.Machine))
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
	c := s.mcast[k]
	c.got++
	s.mcast[k] = c
	if c.got > c.owed {
		s.violate(mcastOnce, now, "multicast group %d delivered %d copies to node %d ep %d, expected %d",
			k.group, c.got, k.node, k.ep, c.owed)
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
			k := mkey{group: group, node: node, ep: ep}
			c := s.mcast[k]
			c.owed++
			s.mcast[k] = c
		}
	}
}

// Observe is the suite's engine observer (sim.Engine.Observe, first deadline
// 1): the clock has arrived at now, so cycle now-1 just completed. It scans
// the machine as of completed cycles 0, scanInterval, 2*scanInterval, ...
// and names the next of them, so a machine restored mid-run, whose observer
// first runs one cycle after the restore, keeps the uninterrupted cadence.
func (s *Suite) Observe(now uint64) (next uint64) {
	off := (now - 1) % scanInterval
	if off == 0 {
		s.scan(now - 1)
	}
	return now + scanInterval - off
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
	for i := range s.env.Channels {
		census += int64(s.env.Channels[i].InFlight())
	}
	if live := s.live(); live != census {
		s.violate(conservation, now,
			"ledger has %d live packets (injected %d + cloned %d - delivered %d - freed %d) but census found %d (queued + channel in-flight)",
			live, s.injected.Load(), s.cloned.Load(), s.delivered.Load(), s.freed.Load(), census)
	}
	for i := range s.env.Channels {
		ch := &s.env.Channels[i]
		for vc := 0; vc < ch.NumVCs(); vc++ {
			cr := ch.Credits(uint8(vc))
			if cr < 0 {
				s.violate(credits, now, "channel %s vc %d has negative credit %d", ch.Name(s.env.Route.Machine), vc, cr)
			} else if cr > ch.BufFlits() {
				s.violate(credits, now, "channel %s vc %d has credit %d above buffer capacity %d",
					ch.Name(s.env.Route.Machine), vc, cr, ch.BufFlits())
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
	for i := range s.env.Channels {
		ch := &s.env.Channels[i]
		for vc := 0; vc < ch.NumVCs(); vc++ {
			if cr := ch.Credits(uint8(vc)); cr < ch.BufFlits() {
				s.violate(credits, now,
					"channel %s vc %d drained with credit %d, want full buffer %d (credit leak)",
					ch.Name(s.env.Route.Machine), vc, cr, ch.BufFlits())
			}
		}
	}
	var missing []mkey
	for k, c := range s.mcast {
		if c.got < c.owed {
			missing = append(missing, k)
		}
	}
	slices.SortFunc(missing, mkey.cmp)
	for _, k := range missing {
		s.violate(mcastOnce, now, "multicast group %d delivered %d copies to node %d ep %d, expected %d (missing deliveries)",
			k.group, s.mcast[k].got, k.node, k.ep, s.mcast[k].owed)
	}
}

// State codes the suite's state in a machine snapshot record: the ledger,
// each multicast key owed or delivered a copy in sorted order with both
// counts, and the violation count with the least violation. What it keeps
// per packet, the packet's record holds. Decoding fills a fresh suite.
func (s *Suite) State(c *wire.Codec) {
	for _, a := range [...]*atomic.Uint64{&s.injected, &s.cloned, &s.delivered, &s.freed} {
		v := a.Load()
		c.Uvarint(&v)
		a.Store(v)
	}
	keys := make([]mkey, 0, len(s.mcast))
	for k := range s.mcast {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, mkey.cmp)
	wire.List(c, &keys, 5)
	for i := range keys {
		k, n := &keys[i], s.mcast[keys[i]]
		for _, v := range [...]*int{&k.group, &k.node, &k.ep, &n.owed, &n.got} {
			c.Int(v)
		}
		if (i > 0 && keys[i-1].cmp(*k) >= 0) || n == (mcount{}) {
			c.Fail("check: multicast count %d is out of key order or empty", i)
			return
		}
		s.mcast[*k] = n
	}
	if c.Int(&s.vcount); s.vcount > 0 {
		c.Uvarint(&s.least.Cycle)
		c.String(&s.least.Checker)
		c.String(&s.least.Msg)
	}
}
