package machine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"anton2/internal/fabric"
	"anton2/internal/fault"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/wire"
)

// sleepScenario is one workload of TestSleepingTicksAreNoops: a shape, a
// change to its default config and the traffic it loads.
type sleepScenario struct {
	name   string
	shape  topo.TorusShape
	config func(*Config)
	inject func(*Machine) uint64
}

// sleepScenarios covers every way a head comes to wait: every routing
// strategy and the inverse-weighted arbiters under lazily sourced uniform
// batches (the Source refill rule), a hotspot that backs up to its senders
// (credit waits everywhere), two-flit packets (crossbar occupancy, two-cycle
// serialization), multicast trees (ingress branches), source-routed energy
// loops, and the stall, credit-loss, corrupt and failed-link fault mixes
// (serializer stalls; credits lost, and a hotspot whose senders starve until
// the resync audit restores them; go-back-N replays and timeouts; a link that
// never frees).
func sleepScenarios() []sleepScenario {
	cube, pair := topo.Shape3(2, 2, 2), topo.Shape3(2, 1, 1)
	uniform := func(m *Machine) uint64 { return sourceUniform(m, 12) }
	plain := func(*Config) {}
	withFault := func(s fault.Spec) func(*Config) {
		return func(c *Config) { c.Fault = &s }
	}
	var out []sleepScenario
	for _, s := range route.Strategies() {
		out = append(out, sleepScenario{"strategy=" + s.Name(), cube, func(c *Config) { c.Scheme = s }, uniform})
	}
	return append(out,
		sleepScenario{"arbiter=iw", cube, func(c *Config) { *c = inverseWeighted(*c) }, uniform},
		sleepScenario{"hotspot", pair, plain, sourceHotspot(0, 64)},
		sleepScenario{"two-flit", cube, plain, injectTwoFlit},
		sleepScenario{"multicast", cube, func(c *Config) { c.Multicast = maskGroups(topo.MustMachine(c.Shape)) }, maskScenario{mcast: true}.inject},
		sleepScenario{"energy", cube, func(c *Config) { c.TrackEnergy = true }, injectLoops},
		sleepScenario{"fault=stall", cube, withFault(fault.Spec{StallRate: 0.005}), uniform},
		sleepScenario{"fault=creditloss", cube, withFault(fault.Spec{CreditLossRate: 0.05}), uniform},
		sleepScenario{"fault=creditloss/hotspot", pair, withFault(fault.Spec{CreditLossRate: 0.9}), sourceHotspot(1, 256)},
		sleepScenario{"fault=corrupt", cube, withFault(fault.Spec{CorruptRate: 0.05}), uniform},
		sleepScenario{"fault=faillinks", cube, withFault(fault.Spec{FailLinks: 1}), uniform},
	)
}

// sourceHotspot returns traffic that makes four endpoints of node from — the
// core of router R1,0, its neighbour on that router and the cores of the
// routers either side — the Source of perEp two-flit requests each to the
// core of R1,0 on node 0, each drawing routes on its own RNG. Ejection drains
// one flit a cycle, so the senders' buffers fill and their heads, and those
// of every component between, come to wait on credit.
func sourceHotspot(from, perEp int) func(*Machine) uint64 {
	return func(m *Machine) uint64 {
		dst := topo.NodeEp{Node: 0, Ep: 1}
		for ep := 0; ep < 4; ep++ {
			src, left := topo.NodeEp{Node: from, Ep: ep}, perEp
			rng := rand.New(rand.NewSource(int64(3 + ep)))
			m.Endpoint(src).Source = func() *packet.Packet {
				if left == 0 {
					return nil
				}
				left--
				return m.MakePacket(src, dst, route.RandomChoices(rng), route.ClassRequest, 0, 2)
			}
		}
		return uint64(4 * perEp)
	}
}

// injectTwoFlit queues six two-flit uniform-random requests per core.
func injectTwoFlit(m *Machine) uint64 {
	rng := rand.New(rand.NewSource(7))
	total := uint64(0)
	for n := 0; n < m.Topo.NumNodes(); n++ {
		for _, ep := range m.Topo.Chip.CoreEndpoints() {
			src := topo.NodeEp{Node: n, Ep: ep}
			for i := 0; i < 6; i++ {
				dst := traffic.Uniform{}.Dest(m.Topo, src, rng)
				m.Endpoint(src).Inject(m.MakePacket(src, dst, route.RandomChoices(rng), route.ClassRequest, 0, 2))
				total++
			}
		}
	}
	return total
}

// injectLoops sends, from the core of every router on node 0, eight
// source-routed packets with payloads to the next router along its mesh row
// and back to the sender, as the energy family's streams loop, on a paced
// NotBefore schedule.
func injectLoops(m *Machine) uint64 {
	chip := m.Topo.Chip
	total := uint64(0)
	for ri := 0; ri < topo.NumRouters; ri++ {
		rc := topo.RouterCoord(ri)
		ep := chip.CoreEndpoint(rc)
		next, dir, back := topo.MeshCoord{U: rc.U + 1, V: rc.V}, topo.UPos, topo.UNeg
		if next.U == topo.MeshW {
			next.U, dir, back = rc.U-1, topo.UNeg, topo.UPos
		}
		ports := []uint8{
			uint8(chip.RouterAt(rc).MeshPort(dir)),
			uint8(chip.RouterAt(next).MeshPort(back)),
			uint8(chip.RouterAt(rc).EndpointPort(ep)),
		}
		src := topo.NodeEp{Node: 0, Ep: ep}
		for i := 0; i < 8; i++ {
			p := m.MakePacket(src, src, route.Choices{Order: topo.AllDimOrders[0], Ties: [3]int8{1, 1, 1}}, route.ClassRequest, 0, 1)
			p.SourceRoute = ports
			p.Payload = []byte{byte(i), byte(ri), 0xA5}
			p.NotBefore = uint64(1 + 3*i + ri%4)
			m.Endpoint(src).Inject(p)
			total++
		}
	}
	return total
}

// tickState encodes everything a component's tick may change: its queues and
// head-of-line routes, crossbar occupancy, ready and occupancy masks,
// arbiter state, reliable-link protocol state, and the sender- and
// receiver-side state of its channels — flits and packets sent, credits, what
// is in flight either way, whether acks are pending. (An empty queue's
// leftover route fields are dead, and credits move between a channel's VCs
// only with a send, which Sent records.)
func tickState(c *wire.Codec, comp sim.Component) {
	u := func(v uint64) { c.Uvarint(&v) }
	b := func(v bool) { c.Bool(&v) }
	queues := func(s *vcset, branches []pktList) {
		u(uint64(s.occ))
		for m := s.occ; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros32(m)
			q := &s.vcs[vc]
			u(uint64(q.count()))
			b(q.out != nil)
			u(uint64(q.outPort))
			u(uint64(q.outVC))
			u(q.readyAt)
			if branches != nil {
				u(uint64(branches[vc].count()))
			}
		}
	}
	channel := func(ch *fabric.Channel) {
		u(ch.Sent)
		u(ch.Pkts)
		u(uint64(ch.InFlight()))
		u(uint64(ch.CreditsInFlight()))
		b(ch.Quiet())
		credits := 0
		for vc := 0; vc < ch.NumVCs(); vc++ {
			credits += ch.Credits(uint8(vc))
		}
		u(uint64(credits))
	}
	switch x := comp.(type) {
	case *router:
		u(uint64(x.queued))
		u(uint64(x.inMask))
		u(uint64(x.credMask))
		for pi := range x.ports {
			ps := &x.ports[pi]
			u(x.inBusy[pi])
			queues(&ps.vcset, nil)
			channel(ps.in)
			channel(ps.out)
			ps.arb.State(c)
			x.sa2[pi].State(c)
		}
	case *channelAdapter:
		u(uint64(x.queued))
		u(uint64(x.inMask))
		u(uint64(x.credMask))
		queues(&x.eg, nil)
		queues(&x.ing, x.branches)
		for _, ch := range [...]*fabric.Channel{x.fromRouter, x.toRouter, x.torusOut, x.torusIn} {
			channel(ch)
		}
		x.eg.arb.State(c)
		x.ing.arb.State(c)
		for _, ch := range [...]*fabric.Channel{x.torusOut, x.torusIn} {
			ch.LinkState(c, func(p *packet.Packet, _ bool) *packet.Packet { return p })
		}
	case *EndpointAdapter:
		u(uint64(x.queued))
		u(x.sched)
		u(uint64(x.inMask))
		u(uint64(x.credMask))
		b(x.Source == nil)
		channel(x.in)
		channel(x.out)
	default:
		panic(fmt.Sprintf("tickState: %T", comp))
	}
}

// TestSleepingTicksAreNoops pins the wake contract from the component side.
// Before every cycle it ticks each router, channel adapter and endpoint the
// active engine will not tick — one that promised a later wake, with no
// arrival, credit return, ack or injection due in between (the wheel holds
// both kinds of wake) — and requires the tick to change nothing. (It skips
// the idle ones, whose ticks return before they touch anything.) Scan mode
// ticks every component every cycle, so a component whose skipped ticks are
// all no-ops leaves the scan reference's bits; the run must then end with
// the scan reference's fingerprint and snapshot record, extra ticks and all.
// Two shards step alternately in parallel and serially (buildForTest).
func TestSleepingTicksAreNoops(t *testing.T) {
	for _, sc := range sleepScenarios() {
		cfg := DefaultConfig(sc.shape)
		sc.config(&cfg)
		run := func(t *testing.T, engine string, shards int, check func(m *Machine)) (*Machine, fingerprint) {
			c := cfg
			c.Engine, c.Shards = engine, shards
			m := buildForTest(c)
			total := sc.inject(m)
			for m.Delivered() < total && (m.flt == nil || m.flt.fatal == nil) {
				if m.Engine.Now() > 200_000 {
					t.Fatalf("%s: no completion (delivered %d/%d)", sc.name, m.Delivered(), total)
				}
				if check != nil {
					check(m)
				}
				m.Engine.Run(1)
			}
			var fatal error
			if m.flt != nil {
				fatal = m.flt.fatal
			}
			return m, m.fingerprint(m.Engine.Now(), fatal)
		}
		snapshot := func(t *testing.T, m *Machine) []byte {
			if m.flt != nil && m.flt.fatal != nil {
				return nil // a fatal run takes no snapshot; its fingerprint names the error
			}
			return mustSnapshot(t, m)
		}
		ref, refFP := run(t, EngineScan, 0, nil)
		refSnap := snapshot(t, ref)
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) {
				var before, after wire.Codec
				var slept, busy int
				m, fp := run(t, EngineActive, shards, func(m *Machine) {
					now := m.Engine.Now()
					for _, n := range m.nodes {
						for _, comp := range n.components() {
							if comp.idle() || m.Engine.Scheduled(comp.engineID()) {
								continue
							}
							before = *wire.NewEncoder(before.Buf()[:0])
							tickState(&before, comp)
							comp.Tick(now)
							after = *wire.NewEncoder(after.Buf()[:0])
							tickState(&after, comp)
							if string(before.Buf()) != string(after.Buf()) {
								t.Fatalf("cycle %d: node %d %T (id %d) slept through a tick that changed its state", now, n.ID, comp, comp.engineID())
							}
							slept++
							if comp.holds() {
								busy++
							}
						}
					}
				})
				if fp != refFP {
					t.Fatalf("trajectory divergence:\n  scan: %+v\n  got:  %+v", refFP, fp)
				}
				if string(snapshot(t, m)) != string(refSnap) {
					t.Fatalf("final snapshot differs from the scan reference's")
				}
				if busy == 0 {
					t.Fatalf("no component slept while holding packets (%d sleeping ticks): the test is vacuous", slept)
				}
			})
		}
	}
}

// sleeper is what TestSleepingTicksAreNoops asks of a component.
type sleeper interface {
	sim.Component
	engineID() int
	holds() bool // packets queued
	idle() bool  // nothing queued, nothing in flight to or from it, nothing to resend
}

func (r *router) engineID() int { return r.cid }
func (r *router) holds() bool   { return r.queued > 0 }
func (r *router) idle() bool    { return r.queued == 0 && r.inMask == 0 && r.credMask == 0 }

func (a *channelAdapter) engineID() int { return a.cid }
func (a *channelAdapter) holds() bool   { return a.queued > 0 }
func (a *channelAdapter) idle() bool {
	return a.queued == 0 && a.inMask == 0 && a.credMask == 0 && a.torusOut.Quiet()
}

func (e *EndpointAdapter) engineID() int { return e.cid }
func (e *EndpointAdapter) holds() bool   { return e.queued > 0 }
func (e *EndpointAdapter) idle() bool {
	return e.queued == 0 && e.Source == nil && e.inMask == 0 && e.credMask == 0
}

// components lists the node's components in registration order.
func (n *node) components() []sleeper {
	out := make([]sleeper, 0, topo.NumRouters+topo.NumChannelAdapters+topo.NumEndpoints)
	for _, r := range n.Routers {
		out = append(out, r)
	}
	for _, a := range n.Adapters {
		out = append(out, a)
	}
	for _, e := range n.Endpoints {
		out = append(out, e)
	}
	return out
}
