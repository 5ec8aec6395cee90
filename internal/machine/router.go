package machine

import (
	"fmt"
	"math/bits"

	"anton2/internal/arbiter"
	"anton2/internal/fabric"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// router is one six-port on-chip mesh router. Its pipeline has four stages
// (Figure 12): route computation (RC), VC allocation (VA), input switch
// arbitration (SA1), and output switch arbitration (SA2). RC/VA/SA1 are
// modeled as a fixed delay before a head packet may bid; SA1 then selects
// one candidate VC per input port and SA2 one input per output port each
// cycle, using the configured arbiter flavor.
type router struct {
	m        *Machine
	node     int
	rc       topo.MeshCoord
	routerID int

	cid   int   // engine component id
	shard int32 // owning shard (0 when unsharded)

	// Ready masks, one bit per port, maintained by the bound channels (see
	// fabric.Channel): inMask bit p is set while port p's input channel
	// holds packets in flight, credMask bit p while its output channel holds
	// returning credits. tick visits set bits only.
	inMask, credMask uint32

	// Port tables, VC queues, arbiters and scratch arrays are carved from
	// the machine's flat arena in component-id order.
	ports  []routerPort
	sa2    []arbiter.Arbiter // per output port, over input ports
	inBusy []uint64          // crossbar input occupancy (multi-flit packets)
	pats   []uint8           // scratch pattern labels for arbiter picks

	queued int
}

// routerPort is one port: its input and output channels, and the input VC
// queues with their SA1 arbiter.
type routerPort struct {
	in, out *fabric.Channel
	vcset
}

// newRouter builds the router in place in the next slot of the arena.
func newRouter(m *Machine, node int, rc topo.MeshCoord) *router {
	cr := m.Topo.Chip.RouterAt(rc)
	np, maxVC := len(cr.Ports), route.MaxTotalVCs(m.Cfg.Scheme)
	a := &m.arena
	r := &a.routers.take(1)[0]
	r.m, r.node, r.rc, r.routerID = m, node, rc, topo.RouterID(rc)
	r.ports = a.ports.take(np)
	r.sa2 = a.arbs.take(np)
	r.inBusy = a.busy.take(np)
	r.pats = a.pats.take(max(maxVC, np))
	for pi := range cr.Ports {
		p, ps := &cr.Ports[pi], &r.ports[pi]
		ps.in = &m.chans[m.Topo.IntraChanID(node, p.InChan)]
		ps.out = &m.chans[m.Topo.IntraChanID(node, p.OutChan)]
		m.newVCSet(&ps.vcset, maxVC, m.sa1Weights(r.routerID, pi, maxVC))
		m.initArbiter(&r.sa2[pi], np, m.sa2Weights(r.routerID, pi, np))
	}
	return r
}

// bind registers the router on all its channels — packet arrivals on the
// input side, credit returns on the output side — for active-set wakeups and
// for the port's bit of the ready masks.
func (r *router) bind() {
	for pi := range r.ports {
		r.ports[pi].in.BindReceiver(r.m.Engine, r.cid, &r.inMask, uint(pi))
		r.ports[pi].out.BindSender(r.m.Engine, r.cid, &r.credMask, uint(pi))
	}
}

// Tick implements sim.Component. In active-set mode the router sleeps until
// the first cycle at which one of its heads could bid (tick's result): a head
// waits out its pipeline delay, its input port's crossbar occupancy and its
// output's serializer or stall, and a head short of credit waits for the
// credit return, which wakes the router itself (fabric.Channel). Arrivals
// wake it through the channel bindings.
func (r *router) Tick(now uint64) {
	if at := r.tick(now); at != never {
		r.m.Engine.Wake(r.cid, at)
	}
}

// tick steps the router one cycle and returns the next cycle it has work at,
// or never when only an arrival or a credit return can give it some. Every
// tick between the two is a no-op: no head is routed, no arbiter picks.
func (r *router) tick(now uint64) (wake uint64) {
	wake = never
	// Absorb credits, then arrivals, on the ports that have any in flight.
	for m := r.credMask; m != 0; m &= m - 1 {
		r.ports[bits.TrailingZeros32(m)].out.AbsorbCredits(now)
	}
	for m := r.inMask; m != 0; m &= m - 1 {
		pi := bits.TrailingZeros32(m)
		ps := &r.ports[pi]
		for r.inMask>>pi&1 != 0 { // Recv clears the bit with the last packet
			p, ok := ps.in.Recv(now)
			if !ok {
				break
			}
			p.ArrivedAt = now
			if p.Trace != nil {
				p.Tracepoint("router "+r.rc.String(), now)
			}
			ps.push(p)
			r.queued++
		}
	}
	if r.queued == 0 {
		return never
	}

	// SA1: each input port nominates one (routed, credited) VC head and
	// files its bid with that head's output port. A busy port routes
	// nothing until its crossbar input frees up.
	var cand [topo.MaxRouterPorts]uint8  // SA1 winner VC of each bidding input port
	var bids [topo.MaxRouterPorts]uint64 // per output port: the inputs bidding for it
	var outs uint32                      // output ports with at least one bid
	for pi := range r.ports {
		ps := &r.ports[pi]
		if ps.occ == 0 {
			continue
		}
		if r.inBusy[pi] > now {
			wake = min(wake, r.inBusy[pi])
			continue
		}
		g, req, at := ps.nominate(now, r.pats, r)
		wake = min(wake, at)
		if req == 0 {
			continue
		}
		if r.m.tel != nil {
			r.m.tel.OnSA1Grant(r.node, r.routerID, pi, g)
		}
		cand[pi] = uint8(g)
		po := ps.vcs[g].outPort
		bids[po] |= 1 << pi
		outs |= 1 << po
	}

	// SA2: each output port with bids grants one nominated input; transfer.
	// A losing input bids again next cycle; the winner's port, if it holds
	// more, looks again once the crossbar input frees up.
	for m := outs; m != 0; m &= m - 1 {
		po := bits.TrailingZeros32(m)
		req := bids[po]
		for b := req; b != 0; b &= b - 1 {
			pi := bits.TrailingZeros64(b)
			r.pats[pi] = r.ports[pi].vcs[cand[pi]].pat
		}
		g := r.sa2[po].Pick(req, r.pats)
		if r.m.tel != nil {
			r.m.tel.OnSA2Grant(r.node, r.routerID, po, g)
		}
		if req&(req-1) != 0 {
			wake = now + 1
		}
		ps := &r.ports[g]
		p := r.m.forward(now, &ps.vcset, int(cand[g]), ps.in, r.shard)
		r.queued--
		r.inBusy[g] = now + uint64(p.Size)
		if ps.occ != 0 {
			wake = min(wake, r.inBusy[g])
		}
	}
	return wake
}

// route runs route computation for a queue's new head packet.
func (r *router) route(now uint64, q *vcq, _ int) {
	p := q.first
	outVC := p.CurVC
	var port int
	if p.SourceRoute != nil {
		port = int(p.SourceRoute[p.SRIdx])
		p.SRIdx++
		if port >= len(r.ports) {
			panic(fmt.Sprintf("machine: source route names port %d at %s with %d ports", port, r.rc, len(r.ports)))
		}
	} else {
		var vc uint8
		port, vc = route.RouterNext(r.m.routeCfg, &p.Route, p.Dst, r.rc)
		outVC = uint8(route.PhysVC(r.m.Cfg.Scheme, r.ports[port].out.Group, p.Route.Class, vc))
	}
	q.outPort = int8(port)
	q.markRouted(r.ports[port].out, outVC, max(p.ArrivedAt+topo.RouterPipeline, now))
}
