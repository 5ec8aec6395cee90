package machine

import (
	"fmt"

	"anton2/internal/fabric"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// channelAdapter bridges a mesh router port to one external torus channel.
// The egress path serializes mesh flits onto the torus link (applying the
// dateline VC-promotion rule); the ingress path decides whether an arriving
// packet continues along its dimension or turns, then forwards it to the
// router. Each path is a vcset: per-VC queues and an arbiter across the VCs.
type channelAdapter struct {
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

	eg   vcset   // mesh -> torus queues, indexed by arrival VC
	ing  vcset   // torus -> router queues, indexed by arrival VC
	pats []uint8 // scratch pattern labels for arbiter picks

	// branches[v] lists the replicated copies of ing's multicast head on
	// VC v, sent one per cycle from the single buffered original (ingress
	// replication); the head pops and its credit returns only after the
	// last branch leaves.
	branches []pktList

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

// newChannelAdapter builds the adapter in place in the next slot of the
// arena.
func newChannelAdapter(m *Machine, node int, id topo.AdapterID) *channelAdapter {
	ca := m.Topo.Chip.AdapterAt(id)
	tvcs := route.TotalVCs(m.Cfg.Scheme, topo.GroupT)
	u := m.Topo.Shape.NodeID(m.Topo.Shape.Neighbor(m.Topo.Shape.Coord(node), id.Dir))
	ar := &m.arena
	a := &ar.adapters.take(1)[0]
	a.m, a.node, a.nodeCoord, a.id = m, node, m.Topo.Shape.Coord(node), id
	a.fromRouter = &m.chans[m.Topo.IntraChanID(node, ca.FromRouter)]
	a.toRouter = &m.chans[m.Topo.IntraChanID(node, ca.ToRouter)]
	a.torusOut = &m.chans[m.Topo.TorusChanID(node, id.Dir, id.Slice)]
	a.torusIn = &m.chans[m.Topo.TorusChanID(u, id.Dir.Opposite(), id.Slice)]
	m.newVCSet(&a.eg, tvcs, m.adapterWeights(true, id, tvcs))
	m.newVCSet(&a.ing, tvcs, m.adapterWeights(false, id, tvcs))
	a.pats = ar.pats.take(tvcs)
	a.branches = ar.branches.take(tvcs)
	return a
}

// egress and ingress are the adapter's two sides as route steps (headRouter).
type (
	egress  channelAdapter
	ingress channelAdapter
)

// bind registers the adapter for active-set wakeups and ready-mask bits:
// packet arrivals on both receive sides and credit returns — and, on a
// reliable torusOut, acks and nacks — on both send sides.
func (a *channelAdapter) bind() {
	a.fromRouter.BindReceiver(a.m.Engine, a.cid, &a.inMask, inFromRouter)
	a.torusIn.BindReceiver(a.m.Engine, a.cid, &a.inMask, inTorusIn)
	a.torusOut.BindSender(a.m.Engine, a.cid, &a.credMask, credTorusOut)
	a.toRouter.BindSender(a.m.Engine, a.cid, &a.credMask, credToRouter)
}

// Tick implements sim.Component. In active-set mode the adapter sleeps until
// the first cycle at which one of its heads could move (tick's result), as a
// router does (router.Tick). Under fault injection torusOut's link layer may
// need it sooner — to replay a frame, or at its go-back-N timeout deadline —
// so a sleeping adapter still fires its retransmit timer on exactly the cycle
// scan mode would.
func (a *channelAdapter) Tick(now uint64) {
	wake := a.tick(now)
	if a.m.flt != nil {
		wake = min(wake, a.torusOut.LinkWake(now))
	}
	if wake != never {
		a.m.Engine.Wake(a.cid, wake)
	}
}

// tick steps the adapter one cycle and returns the next cycle its queues have
// work at, or never when only an arrival, a credit return or an ack can give
// them some.
func (a *channelAdapter) tick(now uint64) (wake uint64) {
	wake = never
	if a.credMask&(1<<credTorusOut) != 0 {
		a.torusOut.AbsorbCredits(now)
	}
	if a.credMask&(1<<credToRouter) != 0 {
		a.toRouter.AbsorbCredits(now)
	}
	if a.m.flt != nil {
		moved, err := a.torusOut.LinkTick(now, a.m.Topo)
		if moved {
			a.m.Engine.ProgressAt(int(a.shard))
		}
		if err != nil {
			a.m.flt.raise(now, a.cid, err)
		}
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
		a.eg.push(p)
		a.queued++
	}
	for a.inMask&(1<<inTorusIn) != 0 {
		p, ok := a.torusIn.Recv(now)
		if !ok {
			break
		}
		if p == nil {
			// The link layer dropped a frame: no packet, but progress.
			a.m.Engine.ProgressAt(int(a.shard))
			continue
		}
		p.ArrivedAt = now
		p.TorusHops++
		if p.Trace != nil {
			p.Tracepoint("adapter ingress "+a.id.String(), now)
		}
		a.ing.push(p)
		a.queued++
	}
	if a.queued == 0 {
		return never
	}

	// Egress: one packet per cycle onto the torus link, chosen among VC
	// heads with credit downstream.
	g, req, at := a.eg.nominate(now, a.pats, (*egress)(a))
	wake = min(wake, at)
	if req != 0 {
		if a.m.tel != nil {
			a.m.tel.OnAdapterGrant(true, a.node, a.id.Index(), g)
		}
		p := a.m.forward(now, &a.eg, g, a.fromRouter, a.shard)
		a.queued--
		if p.Trace != nil {
			p.Tracepoint("torus out "+a.id.String(), now)
		}
		// A loser bids again next cycle, and the winner's next packet is
		// routed then.
		if req&(req-1) != 0 || a.eg.occ>>g&1 != 0 {
			wake = now + 1
		}
	}

	// Ingress: one packet per cycle toward the router.
	g, req, at = a.ing.nominate(now, a.pats, (*ingress)(a))
	wake = min(wake, at)
	if req != 0 {
		if a.m.tel != nil {
			a.m.tel.OnAdapterGrant(false, a.node, a.id.Index(), g)
		}
		if br := &a.branches[g]; !br.empty() {
			// Send the next branch; pop the buffered original only
			// after the last branch leaves.
			a.m.send(now, a.toRouter, br.unlink(), a.ing.vcs[g].outVC)
			if br.empty() {
				orig := a.ing.pop(g)
				a.torusIn.ReturnCredit(now, uint8(g), orig.Size)
				a.m.free(orig, a.shard)
				a.queued--
			}
			a.m.Engine.ProgressAt(int(a.shard))
		} else {
			a.m.forward(now, &a.ing, g, a.torusIn, a.shard)
			a.queued--
		}
		// A loser bids again next cycle; so does the winner's queue,
		// with its next branch or its next packet to route.
		if req&(req-1) != 0 || a.ing.occ>>g&1 != 0 {
			wake = now + 1
		}
	}
	return wake
}

// route computes an egress head's torus VC: the dateline rule applies as the
// packet leaves the node (Section 2.5).
func (e *egress) route(now uint64, q *vcq, _ int) {
	a := (*channelAdapter)(e)
	p := q.first
	vc := route.AdapterEgress(a.m.routeCfg, &p.Route, a.nodeCoord)
	q.markRouted(a.torusOut, uint8(route.PhysVC(a.m.Cfg.Scheme, topo.GroupT, p.Route.Class, vc)), p.ArrivedAt+topo.AdapterPipeline)
}

// route makes an ingress head's continue-or-turn decision (once per
// arrival), or replicates a multicast head per the loaded table into
// branches that ride the adapter->router link at the arrival T-group VC.
func (i *ingress) route(now uint64, q *vcq, qvc int) {
	a := (*channelAdapter)(i)
	p := q.first
	var vc uint8
	if p.MGroup >= 0 {
		a.expandMulticast(p, &a.branches[qvc])
		vc = p.Route.TVC
	} else {
		vc = route.AdapterIngress(a.m.routeCfg, &p.Route, p.Dst, a.node)
	}
	q.markRouted(a.toRouter, uint8(route.PhysVC(a.m.Cfg.Scheme, topo.GroupT, p.Route.Class, vc)), p.ArrivedAt+topo.AdapterPipeline)
}

// expandMulticast links into br, which is empty, the branch copies an
// arriving multicast packet fans out into at this node, per the group's
// table.
func (a *channelAdapter) expandMulticast(p *packet.Packet, br *pktList) {
	g := a.m.Cfg.Multicast[p.MGroup]
	if g == nil {
		panic(fmt.Sprintf("machine: multicast group %d not loaded", p.MGroup))
	}
	e, ok := g.Entries[a.node]
	if !ok {
		panic(fmt.Sprintf("machine: multicast group %d has no entry at node %d", p.MGroup, a.node))
	}
	ingress := a.m.Topo.Chip.AdapterAt(a.id).Router
	for _, d := range e.Forward {
		c := a.m.clonePacket(p, a.shard)
		if d == p.Route.Dir {
			route.MulticastContinue(&c.Route)
		} else {
			route.MulticastTurn(a.m.routeCfg, &c.Route, d, g.DimIndex(d.Dim()), ingress)
		}
		br.link(c)
	}
	for _, ep := range e.Deliver {
		c := a.m.clonePacket(p, a.shard)
		c.Dst = topo.NodeEp{Node: a.node, Ep: ep}
		route.MulticastDeliver(a.m.routeCfg, &c.Route, c.Dst, ingress)
		br.link(c)
	}
	if br.empty() {
		panic(fmt.Sprintf("machine: multicast group %d entry at node %d forwards nowhere", p.MGroup, a.node))
	}
}
