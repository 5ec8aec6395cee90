package machine

import (
	"fmt"
	"testing"

	"anton2/internal/fabric"
	"anton2/internal/multicast"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// occupancy recomputes a queue set's mask from the queues themselves: the
// reference the maintained masks are held to.
func occupancy(qs []vcq) uint32 {
	var occ uint32
	for vc := range qs {
		if !qs[vc].empty() {
			occ |= 1 << vc
		}
	}
	return occ
}

// maskErrors checks the two mask contracts on every component: a ready bit is
// set exactly while its pipe holds something in flight, and a VC-occupancy
// bit exactly while its queue is non-empty. It checks every lossless
// channel's ready bits and a reliable one's credit bit. It also holds every
// routed head's cached state to what it caches: size and pattern label are
// those of the next packet to leave (the first pending multicast branch, or
// else the head), and the output channel is the one its port names.
func (m *Machine) maskErrors() []string {
	var errs []string
	ready := func(who, side string, mask uint32, bit int, inFlight int) {
		if got, want := mask>>bit&1 != 0, inFlight > 0; got != want {
			errs = append(errs, fmt.Sprintf("%s: %s ready bit %d is %v with %d in flight", who, side, bit, got, inFlight))
		}
	}
	queues := func(who, side string, s *vcset, branches []pktList, out func(port int8) *fabric.Channel) {
		if want := occupancy(s.vcs); s.occ != want {
			errs = append(errs, fmt.Sprintf("%s: %s occupancy mask %#x, queues say %#x", who, side, s.occ, want))
		}
		for vc := range s.vcs {
			q := &s.vcs[vc]
			if q.empty() || q.out == nil {
				continue
			}
			next := q.first
			if branches != nil && !branches[vc].empty() {
				next = branches[vc].first
			}
			if q.size != next.Size || q.pat != next.PatternID {
				errs = append(errs, fmt.Sprintf("%s: %s VC %d caches size %d pattern %d, the next packet out has %d, %d", who, side, vc, q.size, q.pat, next.Size, next.PatternID))
			}
			if q.out != out(q.outPort) {
				errs = append(errs, fmt.Sprintf("%s: %s VC %d: routed head's channel is not port %d's output", who, side, vc, q.outPort))
			}
		}
	}
	in := func(who string, mask uint32, bit int, ch *fabric.Channel) {
		ready(who, "in", mask, bit, ch.InFlight())
	}
	cred := func(who string, mask uint32, bit int, ch *fabric.Channel) {
		ready(who, "credit", mask, bit, ch.CreditsInFlight())
	}
	for i := range m.nodes {
		node := &m.nodes[i]
		for ri, r := range node.Routers {
			who := fmt.Sprintf("node %d router %d", node.ID, ri)
			for pi := range r.ports {
				ps := &r.ports[pi]
				in(who, r.inMask, pi, ps.in)
				cred(who, r.credMask, pi, ps.out)
				queues(who, fmt.Sprintf("port %d", pi), &ps.vcset, nil, func(po int8) *fabric.Channel { return r.ports[po].out })
			}
			if r.inMask>>len(r.ports) != 0 || r.credMask>>len(r.ports) != 0 {
				errs = append(errs, who+": ready bit beyond the port count")
			}
		}
		for ai, a := range node.Adapters {
			who := fmt.Sprintf("node %d adapter %d", node.ID, ai)
			in(who, a.inMask, inFromRouter, a.fromRouter)
			// A reliable channel counts logical packets in flight, not pipe
			// entries: fabric's TestReliableChannel holds its ready bit.
			if m.flt == nil || m.flt.failed[int(a.torusIn.ID)] {
				in(who, a.inMask, inTorusIn, a.torusIn)
			}
			cred(who, a.credMask, credTorusOut, a.torusOut)
			cred(who, a.credMask, credToRouter, a.toRouter)
			queues(who, "egress", &a.eg, nil, func(int8) *fabric.Channel { return a.torusOut })
			queues(who, "ingress", &a.ing, a.branches, func(int8) *fabric.Channel { return a.toRouter })
		}
		for ei, e := range node.Endpoints {
			who := fmt.Sprintf("node %d endpoint %d", node.ID, ei)
			in(who, e.inMask, 0, e.in)
			cred(who, e.credMask, 0, e.out)
		}
	}
	return errs
}

// maskScenarios are the 2x2x2 runs the mask contract is stepped through: a
// uniform fig9-style batch, an MD-timestep-like mix whose force multicasts
// replicate into branches at the channel adapters, and the transient-fault
// mix (corruption and stalls under go-back-N, with its duplicate frames,
// dropped frames and out-of-band credit returns).
var maskScenarios = []maskScenario{
	{name: "uniform batch"},
	{name: "multicast timestep", mcast: true},
	{name: "transient faults", withFault: true},
}

type maskScenario struct {
	name      string
	withFault bool
	mcast     bool
}

// config is the scenario's machine on the given shape and engine.
func (sc maskScenario) config(shape topo.TorusShape, engine string, shards int) Config {
	cfg := snapConfig(shape, engine, shards, sc.withFault)
	if sc.mcast {
		cfg.Multicast = maskGroups(topo.MustMachine(shape))
	}
	return cfg
}

// inject loads the scenario's traffic and returns the delivery count that
// ends the run.
func (sc maskScenario) inject(m *Machine) uint64 {
	total := snapInject(m, 6)
	if sc.mcast {
		for n := 0; n < m.Topo.NumNodes(); n++ {
			src := topo.NodeEp{Node: n, Ep: m.Topo.Chip.CoreEndpoints()[n%4]}
			for i := 0; i < 3; i++ {
				total += uint64(m.InjectMulticast(src, n, route.ClassRequest, 0))
			}
		}
	}
	return total
}

// maskGroups compiles one plane-neighborhood multicast group per node, with a
// second endpoint copy on the first destination (deduped as workload.Tables
// does: on radix 2 the neighborhood aliases under wraparound).
func maskGroups(tm *topo.Machine) map[int]*multicast.Compiled {
	out := make(map[int]*multicast.Compiled)
	for n := 0; n < tm.NumNodes(); n++ {
		root := tm.Shape.Coord(n)
		seen := map[topo.NodeEp]bool{}
		var dests []topo.NodeEp
		for _, d := range multicast.PlaneNeighborhood(tm.Shape, root, topo.DimX, topo.DimY, 1, 0) {
			if d.Node != n && !seen[d] {
				seen[d] = true
				dests = append(dests, d)
			}
		}
		dests = append(dests, topo.NodeEp{Node: dests[0].Node, Ep: 5})
		out[n] = multicast.Build(tm.Shape, root, dests, topo.AllDimOrders[n%len(topo.AllDimOrders)], n%topo.NumSlices).Compile(tm.Shape)
	}
	return out
}

// TestMaskConsistency steps each scenario one cycle at a time under every
// engine and asserts the mask contract after every step — and, every few
// cycles, again on a fresh machine restored from a snapshot of that instant,
// since Restore has to rebuild both kinds of mask from the restored queues
// and pipes.
func TestMaskConsistency(t *testing.T) {
	const restoreStride = 3
	for _, sc := range maskScenarios {
		for name, cfg := range snapVariants(sc.withFault) {
			cfg = sc.config(cfg.Shape, cfg.Engine, cfg.Shards)
			build := func() *Machine { return buildForTest(cfg) }
			m := build()
			total := sc.inject(m)
			sawReady, sawOcc := false, false
			for m.Delivered() < total {
				if m.Engine.Now() > 200_000 {
					t.Fatalf("%s/%s: run did not finish (delivered %d/%d)", sc.name, name, m.Delivered(), total)
				}
				m.Engine.Run(1)
				if errs := m.maskErrors(); errs != nil {
					t.Fatalf("%s/%s: after cycle %d: %d mask errors, first: %s", sc.name, name, m.Engine.Now()-1, len(errs), errs[0])
				}
				r0 := m.nodes[0].Routers[0]
				sawReady = sawReady || r0.inMask != 0 || r0.credMask != 0
				sawOcc = sawOcc || m.nodes[0].Adapters[0].eg.occ|m.nodes[0].Adapters[0].ing.occ != 0
				if m.Engine.Now()%restoreStride != 0 {
					continue
				}
				r := build()
				if err := r.RestoreSnapshot(mustSnapshot(t, m)); err != nil {
					t.Fatalf("%s/%s: restore at %d: %v", sc.name, name, m.Engine.Now(), err)
				}
				if errs := r.maskErrors(); errs != nil {
					t.Fatalf("%s/%s: restored at %d: %d mask errors, first: %s", sc.name, name, m.Engine.Now(), len(errs), errs[0])
				}
			}
			if !sawReady || !sawOcc {
				t.Errorf("%s/%s: the run never set a mask bit on the sampled components (ready %v, occupancy %v)", sc.name, name, sawReady, sawOcc)
			}
		}
	}
}

// TestEveryStrategyFitsTheMasks: the channels' inline credit arrays and the
// 32-bit occupancy masks bound the VC count; every registered routing
// strategy must build under them.
func TestEveryStrategyFitsTheMasks(t *testing.T) {
	for _, s := range route.Strategies() {
		if n := route.MaxTotalVCs(s); n > fabric.MaxVCs {
			t.Errorf("%s needs %d VCs, fabric.MaxVCs is %d", s.Name(), n, fabric.MaxVCs)
		}
		cfg := DefaultConfig(topo.Shape3(2, 2, 2))
		cfg.Scheme = s
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}
