package machine

import (
	"fmt"
	"math/bits"

	"anton2/internal/arbiter"
	"anton2/internal/fabric"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// Router is one six-port on-chip mesh router. Its pipeline has four stages
// (Figure 12): route computation (RC), VC allocation (VA), input switch
// arbitration (SA1), and output switch arbitration (SA2). RC/VA/SA1 are
// modeled as a fixed delay before a head packet may bid; SA1 then selects
// one candidate VC per input port and SA2 one input per output port each
// cycle, using the configured arbiter flavor.
type Router struct {
	m         *Machine
	node      int
	nodeCoord topo.NodeCoord
	rc        topo.MeshCoord
	routerID  int

	cid   int   // engine component id
	shard int32 // owning shard (0 when unsharded)

	// Ready masks, one bit per port, maintained by the bound channels (see
	// fabric.Channel): inMask bit p is set while port p's input channel
	// holds packets in flight, credMask bit p while its output channel holds
	// returning credits. tick visits set bits only.
	inMask, credMask uint32

	// Port tables, VC queues and scratch arrays are carved from the
	// machine's flat arena in component-id order.
	ports  []routerPort
	sa1    []arbiter.Arbiter // per input port, over VCs
	sa2    []arbiter.Arbiter // per output port, over input ports
	inBusy []uint64          // crossbar input occupancy (multi-flit packets)
	pats   []uint8           // scratch pattern labels for arbiter picks

	queued int
}

type routerPort struct {
	in, out *fabric.Channel
	vcs     []vcq
	occ     uint32 // bit v set while vcs[v] is non-empty (pushVC/popVC)
}

func newRouter(m *Machine, node int, rc topo.MeshCoord) *Router {
	chip := m.Topo.Chip
	cr := chip.RouterAt(rc)
	r := &Router{
		m:         m,
		node:      node,
		nodeCoord: m.Topo.Shape.Coord(node),
		rc:        rc,
		routerID:  topo.RouterID(rc),
		ports:     m.arena.takePorts(len(cr.Ports)),
		sa1:       make([]arbiter.Arbiter, len(cr.Ports)),
		sa2:       make([]arbiter.Arbiter, len(cr.Ports)),
		inBusy:    m.arena.takeBusy(len(cr.Ports)),
	}
	maxVCScratch := route.MaxTotalVCs(m.Cfg.Scheme)
	if maxVCScratch < len(cr.Ports) {
		maxVCScratch = len(cr.Ports)
	}
	r.pats = m.arena.takePats(maxVCScratch)
	maxVC := route.MaxTotalVCs(m.Cfg.Scheme)
	for pi := range cr.Ports {
		p := &cr.Ports[pi]
		r.ports[pi] = routerPort{
			in:  m.chans[m.Topo.IntraChanID(node, p.InChan)],
			out: m.chans[m.Topo.IntraChanID(node, p.OutChan)],
			vcs: m.arena.takeVCQ(maxVC),
		}
		r.sa1[pi] = m.newArbiter(maxVC, m.sa1Weights(r.routerID, pi, maxVC))
		r.sa2[pi] = m.newArbiter(len(cr.Ports), m.sa2Weights(r.routerID, pi, len(cr.Ports)))
	}
	return r
}

// bind registers the router on all its channels — packet arrivals on the
// input side, credit returns on the output side — for active-set wakeups and
// for the port's bit of the ready masks.
func (r *Router) bind() {
	for pi := range r.ports {
		r.ports[pi].in.BindReceiver(r.m.Engine, r.cid, &r.inMask, uint(pi))
		r.ports[pi].out.BindSender(r.m.Engine, r.cid, &r.credMask, uint(pi))
	}
}

// Tick implements sim.Component. In active-set mode the router re-arms
// itself for the next cycle whenever packets remain queued; all other wake
// sources (arrivals, credit returns) come from the channel bindings.
func (r *Router) Tick(now uint64) {
	r.tick(now)
	if r.queued > 0 {
		r.m.Engine.Wake(r.cid, now+1)
	}
}

func (r *Router) tick(now uint64) {
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
			pushVC(ps.vcs, &ps.occ, p.CurVC, p)
			r.queued++
		}
	}
	if r.queued == 0 {
		return
	}

	// SA1: each input port nominates one (routed, credited) VC head and
	// files its bid with that head's output port.
	var cand [topo.MaxRouterPorts]uint8  // SA1 winner VC of each bidding input port
	var bids [topo.MaxRouterPorts]uint64 // per output port: the inputs bidding for it
	var outs uint32                      // output ports with at least one bid
	for pi := range r.ports {
		if r.inBusy[pi] > now {
			continue
		}
		ps := &r.ports[pi]
		var req uint64
		for m := ps.occ; m != 0; m &= m - 1 {
			vci := bits.TrailingZeros32(m)
			q := &ps.vcs[vci]
			if !q.routed {
				r.routeHead(now, q)
			}
			if q.readyAt > now {
				continue
			}
			h := q.headPkt()
			if r.ports[q.outPort].out.CanSend(now, q.outVC, h.Size) {
				req |= 1 << vci
				r.pats[vci] = h.PatternID
			}
		}
		if req == 0 {
			continue
		}
		g := r.sa1[pi].Pick(req, r.pats)
		if r.m.tel != nil {
			r.m.tel.OnSA1Grant(r.node, r.routerID, pi, g)
		}
		cand[pi] = uint8(g)
		po := ps.vcs[g].outPort
		bids[po] |= 1 << pi
		outs |= 1 << po
	}

	// SA2: each output port with bids grants one nominated input; transfer.
	for m := outs; m != 0; m &= m - 1 {
		po := bits.TrailingZeros32(m)
		req := bids[po]
		for b := req; b != 0; b &= b - 1 {
			pi := bits.TrailingZeros64(b)
			r.pats[pi] = r.ports[pi].vcs[cand[pi]].headPkt().PatternID
		}
		g := r.sa2[po].Pick(req, r.pats)
		if r.m.tel != nil {
			r.m.tel.OnSA2Grant(r.node, r.routerID, po, g)
		}
		pi := g
		vci := cand[pi]
		ps := &r.ports[pi]
		outVC := ps.vcs[vci].outVC
		p := popVC(ps.vcs, &ps.occ, vci)
		r.queued--
		r.ports[po].out.Send(now, p, outVC)
		if r.m.checks != nil {
			r.m.checks.OnSend(p, r.ports[po].out, outVC, now)
		}
		ps.in.ReturnCredit(now, vci, p.Size)
		r.inBusy[pi] = now + uint64(p.Size)
		r.m.Engine.ProgressAt(int(r.shard))
	}
}

// routeHead runs route computation for a queue's new head packet.
func (r *Router) routeHead(now uint64, q *vcq) {
	p := q.headPkt()
	if p.SourceRoute != nil {
		op := p.SourceRoute[p.SRIdx]
		p.SRIdx++
		if int(op) >= len(r.ports) {
			panic(fmt.Sprintf("machine: source route names port %d at %s with %d ports", op, r.rc, len(r.ports)))
		}
		q.outPort = int8(op)
		q.outVC = p.CurVC
	} else {
		port, vc := route.RouterNext(r.m.routeCfg, &p.Route, p.Dst, r.rc)
		out := r.ports[port].out
		q.outPort = int8(port)
		q.outVC = uint8(route.PhysVC(r.m.Cfg.Scheme, out.Group, p.Route.Class, vc))
	}
	q.routed = true
	q.readyAt = p.ArrivedAt + topo.RouterPipeline
	if q.readyAt < now {
		q.readyAt = now
	}
}
