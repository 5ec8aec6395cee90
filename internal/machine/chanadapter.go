package machine

import (
	"fmt"
	"math/bits"

	"anton2/internal/arbiter"
	"anton2/internal/fabric"
	"anton2/internal/fault"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// ChannelAdapter bridges a mesh router port to one external torus channel.
// The egress path serializes mesh flits onto the torus link (applying the
// dateline VC-promotion rule); the ingress path decides whether an arriving
// packet continues along its dimension or turns, then forwards it to the
// router. Both paths have per-VC queues and an arbiter across the VCs.
type ChannelAdapter struct {
	m         *Machine
	node      int
	nodeCoord topo.NodeCoord
	id        topo.AdapterID

	cid   int   // engine component id
	shard int32 // owning shard (0 when unsharded)

	fromRouter *fabric.Channel // router -> adapter (mesh side in)
	toRouter   *fabric.Channel // adapter -> router (mesh side out)
	torusOut   *fabric.Channel // adapter -> neighbor (serial out)
	torusIn    *fabric.Channel // neighbor -> adapter (serial in)

	// Ready masks maintained by the bound channels (see fabric.Channel):
	// inMask has bit inFromRouter / inTorusIn set while that channel holds
	// packets in flight, credMask bit credTorusOut / credToRouter while that
	// channel holds returning credits.
	inMask, credMask uint32

	eg  []vcq // mesh -> torus queues, indexed by arrival VC
	ing []vcq // torus -> router queues, indexed by arrival VC
	// egOcc / ingOcc: bit v set while eg[v] / ing[v] is non-empty.
	egOcc, ingOcc uint32

	// Reliable-link state, non-nil only under fault injection: rlOut is
	// the go-back-N sender side of torusOut, rlIn the receiver side of
	// torusIn. Either may be nil for a permanently failed link.
	rlOut *rlink
	rlIn  *rlink

	egArb arbiter.Arbiter
	inArb arbiter.Arbiter
	pats  []uint8 // scratch pattern labels for arbiter picks

	// outLabel is the precomputed "torus out <id>" tracepoint stage: the
	// serializer send sits on the hot path, and rebuilding the label there
	// would allocate for every packet whether or not it is traced.
	outLabel string

	queued int
}

// Bit positions of the adapter's channels in its ready masks.
const (
	inFromRouter = iota
	inTorusIn
)
const (
	credTorusOut = iota
	credToRouter
)

func newChannelAdapter(m *Machine, node int, id topo.AdapterID) *ChannelAdapter {
	ca := m.Topo.Chip.AdapterAt(id)
	tvcs := route.TotalVCs(m.Cfg.Scheme, topo.GroupT)
	u := m.Topo.Shape.NodeID(m.Topo.Shape.Neighbor(m.Topo.Shape.Coord(node), id.Dir))
	a := &ChannelAdapter{
		m:          m,
		node:       node,
		nodeCoord:  m.Topo.Shape.Coord(node),
		id:         id,
		fromRouter: m.chans[m.Topo.IntraChanID(node, ca.FromRouter)],
		toRouter:   m.chans[m.Topo.IntraChanID(node, ca.ToRouter)],
		torusOut:   m.chans[m.Topo.TorusChanID(node, id.Dir, id.Slice)],
		torusIn:    m.chans[m.Topo.TorusChanID(u, id.Dir.Opposite(), id.Slice)],
		eg:         m.arena.takeVCQ(tvcs),
		ing:        m.arena.takeVCQ(tvcs),
		outLabel:   "torus out " + id.String(),
	}
	a.egArb = m.newArbiter(tvcs, m.adapterWeights(true, id, tvcs))
	a.inArb = m.newArbiter(tvcs, m.adapterWeights(false, id, tvcs))
	a.pats = m.arena.takePats(tvcs)
	if m.flt != nil {
		a.rlOut = m.flt.rlinkFor(a.torusOut.ID)
		a.rlIn = m.flt.rlinkFor(a.torusIn.ID)
	}
	return a
}

// bind registers the adapter for active-set wakeups and ready-mask bits:
// packet arrivals on both receive sides, credit returns on both send sides,
// and — when the link is reliable — ack/nack control arrivals on the outgoing
// link's reverse pipe.
func (a *ChannelAdapter) bind() {
	a.fromRouter.BindReceiver(a.m.Engine, a.cid, &a.inMask, inFromRouter)
	a.torusIn.BindReceiver(a.m.Engine, a.cid, &a.inMask, inTorusIn)
	a.torusOut.BindSender(a.m.Engine, a.cid, &a.credMask, credTorusOut)
	a.toRouter.BindSender(a.m.Engine, a.cid, &a.credMask, credToRouter)
	if a.rlOut != nil {
		a.rlOut.sndE, a.rlOut.sndID = a.m.Engine, int32(a.cid)
	}
}

// Tick implements sim.Component. In active-set mode the adapter re-arms
// itself while it has queued packets or a pending replay, and — crucially —
// schedules a wake at the go-back-N timeout deadline when frames are
// outstanding, so a sleeping adapter still fires its retransmit timer on
// exactly the cycle scan mode would.
func (a *ChannelAdapter) Tick(now uint64) {
	a.tick(now)
	e := a.m.Engine
	if a.queued > 0 {
		e.Wake(a.cid, now+1)
		return
	}
	if rl := a.rlOut; rl != nil {
		if _, ok := rl.snd.NeedRetx(); ok {
			e.Wake(a.cid, now+1)
			return
		}
		if dl, ok := rl.snd.Deadline(); ok {
			e.Wake(a.cid, dl)
		}
	}
}

func (a *ChannelAdapter) tick(now uint64) {
	if a.credMask&(1<<credTorusOut) != 0 {
		a.torusOut.AbsorbCredits(now)
	}
	if a.credMask&(1<<credToRouter) != 0 {
		a.toRouter.AbsorbCredits(now)
	}
	if a.rlOut != nil {
		a.reliableOutTick(now)
	}

	for a.inMask&(1<<inFromRouter) != 0 {
		p, ok := a.fromRouter.Recv(now)
		if !ok {
			break
		}
		if p.SourceRoute != nil {
			panic("machine: source-routed packet reached a channel adapter")
		}
		p.ArrivedAt = now
		if p.Trace != nil {
			p.Tracepoint("adapter egress "+a.id.String(), now)
		}
		pushVC(a.eg, &a.egOcc, p.CurVC, p)
		a.queued++
	}
	for a.inMask&(1<<inTorusIn) != 0 {
		p, ok := a.torusIn.Recv(now)
		if !ok {
			break
		}
		// The link-layer verdict comes first: a dropped frame (corrupt or
		// out of order) must not touch the packet's routing statistics —
		// its pointer may alias a copy already accepted and moved on.
		if a.rlIn != nil && !a.acceptFrame(now, p) {
			continue
		}
		p.ArrivedAt = now
		p.TorusHops++
		if p.Trace != nil {
			p.Tracepoint("adapter ingress "+a.id.String(), now)
		}
		pushVC(a.ing, &a.ingOcc, p.CurVC, p)
		a.queued++
	}
	// A pending replay preempts fresh egress traffic (go-back-N order).
	sentRetx := a.rlOut != nil && a.tryRetransmit(now)
	if a.queued == 0 {
		return
	}

	// Egress: one packet per cycle onto the torus link, chosen among VC
	// heads with credit downstream. Under reliability, fresh sends also
	// need window space and yield to a retransmission this cycle.
	var req uint64
	if !sentRetx && (a.rlOut == nil || a.rlOut.snd.CanSend()) {
		for m := a.egOcc; m != 0; m &= m - 1 {
			vci := bits.TrailingZeros32(m)
			q := &a.eg[vci]
			if !q.routed {
				p := q.headPkt()
				// The dateline rule applies as the packet leaves the
				// node (Section 2.5).
				vc := route.AdapterEgress(a.m.routeCfg, &p.Route, a.nodeCoord)
				q.outVC = uint8(route.PhysVC(a.m.Cfg.Scheme, topo.GroupT, p.Route.Class, vc))
				q.routed = true
				q.readyAt = p.ArrivedAt + topo.AdapterPipeline
			}
			if q.readyAt <= now && a.torusOut.CanSend(now, q.outVC, q.headPkt().Size) {
				req |= 1 << vci
				a.pats[vci] = q.headPkt().PatternID
			}
		}
		if req != 0 {
			g := a.egArb.Pick(req, a.pats)
			if a.m.tel != nil {
				a.m.tel.OnAdapterGrant(true, a.node, a.id.Index(), g)
			}
			outVC := a.eg[g].outVC
			p := popVC(a.eg, &a.egOcc, uint8(g))
			a.queued--
			a.torusOut.Send(now, p, outVC)
			if rl := a.rlOut; rl != nil {
				corrupt := a.m.flt.inj.CorruptNext(rl.link)
				if corrupt {
					a.m.flt.cnt[a.shard].CorruptInjected++
				}
				rl.pushMeta(rl.snd.OnSend(now), outVC, corrupt)
				rl.win = append(rl.win, winEntry{p: p, vc: outVC})
			}
			if a.m.checks != nil {
				a.m.checks.OnSend(p, a.torusOut, outVC, now)
			}
			p.Tracepoint(a.outLabel, now)
			a.fromRouter.ReturnCredit(now, uint8(g), p.Size)
			a.m.Engine.ProgressAt(int(a.shard))
		}
	}

	// Ingress: one packet per cycle toward the router.
	req = 0
	for m := a.ingOcc; m != 0; m &= m - 1 {
		vci := bits.TrailingZeros32(m)
		q := &a.ing[vci]
		if !q.routed {
			p := q.headPkt()
			if p.MGroup >= 0 {
				// Multicast: replicate per the loaded table;
				// branches ride the adapter->router link at
				// the arrival T-group VC.
				q.branches = a.expandMulticast(p)
				q.outVC = uint8(route.PhysVC(a.m.Cfg.Scheme, topo.GroupT, p.Route.Class, p.Route.TVC))
			} else {
				// Continue-or-turn decision (once per arrival).
				vc := route.AdapterIngress(a.m.routeCfg, &p.Route, p.Dst, a.node)
				q.outVC = uint8(route.PhysVC(a.m.Cfg.Scheme, topo.GroupT, p.Route.Class, vc))
			}
			q.routed = true
			q.readyAt = p.ArrivedAt + topo.AdapterPipeline
		}
		if q.readyAt <= now && a.toRouter.CanSend(now, q.outVC, a.ingHead(q).Size) {
			req |= 1 << vci
			a.pats[vci] = a.ingHead(q).PatternID
		}
	}
	if req != 0 {
		g := a.inArb.Pick(req, a.pats)
		if a.m.tel != nil {
			a.m.tel.OnAdapterGrant(false, a.node, a.id.Index(), g)
		}
		q := &a.ing[g]
		outVC := q.outVC
		if len(q.branches) > 0 {
			// Send the next branch; pop the buffered original only
			// after the last branch leaves.
			b := q.branches[0]
			q.branches = q.branches[1:]
			a.toRouter.Send(now, b, outVC)
			if a.m.checks != nil {
				a.m.checks.OnSend(b, a.toRouter, outVC, now)
			}
			if len(q.branches) == 0 {
				orig := popVC(a.ing, &a.ingOcc, uint8(g))
				a.queued--
				a.torusIn.ReturnCredit(now, uint8(g), orig.Size)
				a.m.free(orig, a.shard)
			}
		} else {
			p := popVC(a.ing, &a.ingOcc, uint8(g))
			a.queued--
			a.toRouter.Send(now, p, outVC)
			if a.m.checks != nil {
				a.m.checks.OnSend(p, a.toRouter, outVC, now)
			}
			a.torusIn.ReturnCredit(now, uint8(g), p.Size)
		}
		a.m.Engine.ProgressAt(int(a.shard))
	}
}

// acceptFrame runs the go-back-N receiver over one frame arriving on
// torusIn and returns whether the packet is delivered upward. Dropped
// frames (corrupt, out of order, or stale duplicates) release their buffer
// space immediately on the frame's wire VC; only the frame metadata is
// consulted for that, because the packet pointer of a stale duplicate may
// alias a packet that has long since moved on.
func (a *ChannelAdapter) acceptFrame(now uint64, p *packet.Packet) bool {
	rl := a.rlIn
	flt := a.m.flt
	mt := rl.popMeta()
	if mt.corrupt {
		flt.cnt[a.shard].CorruptDetected++
	}
	v := rl.rcv.OnFrame(mt.seq, mt.corrupt)
	switch {
	case v.Ack:
		rl.sendCtrl(now, linkCtrl{seq: v.Seq})
		flt.cnt[a.shard].Acks++
	case v.Nack:
		rl.sendCtrl(now, linkCtrl{seq: v.Seq, nack: true})
		flt.cnt[a.shard].Nacks++
	}
	if v.Accept {
		return true
	}
	if !mt.corrupt && mt.seq < rl.rcv.Expected() {
		flt.cnt[a.shard].DupsDropped++
	}
	a.torusIn.ReturnCredit(now, mt.vc, p.Size)
	a.m.Engine.ProgressAt(int(a.shard))
	return false
}

// reliableOutTick drains torusOut's ack/nack channel into the go-back-N
// sender, releases acknowledged window entries, and fires the timeout
// rewind. A sender that exhausts its rewind budget marks the whole run
// fatally degraded.
func (a *ChannelAdapter) reliableOutTick(now uint64) {
	rl := a.rlOut
	flt := a.m.flt
	for {
		c, ok := rl.ctrl.Poll(now)
		if !ok {
			break
		}
		var released int
		if c.nack {
			released = rl.snd.OnNack(c.seq, now)
		} else {
			released = rl.snd.OnAck(c.seq, now)
		}
		if released > 0 {
			rl.win = rl.win[:copy(rl.win, rl.win[released:])]
			a.m.Engine.ProgressAt(int(a.shard))
		}
	}
	if rl.snd.Tick(now) {
		flt.cnt[a.shard].Timeouts++
	}
	if rl.snd.Dead() {
		flt.setFatalShard(int(a.shard), &fault.BudgetError{Link: rl.ch.Name, Attempts: rl.snd.Attempts()})
	}
}

// tryRetransmit replays the next pending window entry on torusOut, if the
// serializer and credits allow. Retransmissions bypass the invariant
// suite's OnSend hook: the packet's routing state may legitimately have
// advanced since the original transmission, so route-progress checks would
// misfire on the stale copy.
func (a *ChannelAdapter) tryRetransmit(now uint64) bool {
	rl := a.rlOut
	seq, ok := rl.snd.NeedRetx()
	if !ok {
		return false
	}
	ent := rl.win[seq-rl.snd.Base()]
	if !a.torusOut.CanSend(now, ent.vc, ent.p.Size) {
		return false
	}
	flt := a.m.flt
	corrupt := flt.inj.CorruptNext(rl.link)
	if corrupt {
		flt.cnt[a.shard].CorruptInjected++
	}
	a.torusOut.Resend(now, ent.p, ent.vc)
	rl.pushMeta(seq, ent.vc, corrupt)
	rl.snd.OnRetx()
	flt.cnt[a.shard].Retransmits++
	a.m.Engine.ProgressAt(int(a.shard))
	return true
}

// ingHead returns the packet that would move next from an ingress queue: a
// pending multicast branch, or the head itself.
func (a *ChannelAdapter) ingHead(q *vcq) *packet.Packet {
	if len(q.branches) > 0 {
		return q.branches[0]
	}
	return q.headPkt()
}

// expandMulticast builds the branch copies an arriving multicast packet
// fans out into at this node, per the group's table.
func (a *ChannelAdapter) expandMulticast(p *packet.Packet) []*packet.Packet {
	g := a.m.Cfg.Multicast[p.MGroup]
	if g == nil {
		panic(fmt.Sprintf("machine: multicast group %d not loaded", p.MGroup))
	}
	e, ok := g.Entries[a.node]
	if !ok {
		panic(fmt.Sprintf("machine: multicast group %d has no entry at node %d", p.MGroup, a.node))
	}
	ingress := a.m.Topo.Chip.AdapterAt(a.id).Router
	out := make([]*packet.Packet, 0, len(e.Forward)+len(e.Deliver))
	for _, d := range e.Forward {
		c := a.m.clonePacket(p, a.shard)
		if d == p.Route.Dir {
			route.MulticastContinue(&c.Route)
		} else {
			route.MulticastTurn(a.m.routeCfg, &c.Route, d, g.DimIndex(d.Dim()), ingress)
		}
		out = append(out, c)
	}
	for _, ep := range e.Deliver {
		c := a.m.clonePacket(p, a.shard)
		c.Dst = topo.NodeEp{Node: a.node, Ep: ep}
		route.MulticastDeliver(a.m.routeCfg, &c.Route, c.Dst, ingress)
		out = append(out, c)
	}
	if len(out) == 0 {
		panic(fmt.Sprintf("machine: multicast group %d entry at node %d forwards nowhere", p.MGroup, a.node))
	}
	return out
}
