package machine

import (
	"sync/atomic"

	"anton2/internal/fabric"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// EndpointAdapter connects a computational endpoint (a "core") to its mesh
// router. It has an unbounded software-side injection queue — MD
// communication is bursty and not self-throttling (Section 2) — and a single
// VC per traffic class toward the network.
type EndpointAdapter struct {
	m *Machine

	cid   int   // engine component id
	shard int32 // owning shard (0 when unsharded)

	out *fabric.Channel // endpoint -> router
	in  *fabric.Channel // router -> endpoint

	// Ready masks (bit 0 only) maintained by the bound channels: inMask is
	// set while in holds packets in flight, credMask while out holds
	// returning credits.
	inMask, credMask uint32

	// inj is the software injection queue and queued its length, which the
	// Source refill check reads every tick.
	inj    pktList
	queued int

	// Source, when non-nil, lazily supplies injection packets once the
	// explicit queue is empty; it returns nil when exhausted. This keeps
	// large batch experiments at O(1) memory. It runs inside this endpoint's
	// Tick — on a shard worker in a parallel cycle — so the packets it makes
	// must name this endpoint's node as their source.
	Source func() *packet.Packet

	// OnDeliver, when set, observes each delivered packet before it is
	// recycled. Returning true retains the packet (the pool will not
	// reuse it).
	OnDeliver func(p *packet.Packet, now uint64) bool

	// sched tracks the last scheduled injection cycle so the software
	// send pipeline overlaps: sustained injection is one packet per
	// cycle after the initial EndpointPipeline latency.
	sched uint64
}

// newEndpoint builds the endpoint in place in the next slot of the arena.
func newEndpoint(m *Machine, node, ep int) *EndpointAdapter {
	ce := &m.Topo.Chip.Endpoints[ep]
	e := &m.arena.endpoints.take(1)[0]
	e.m = m
	e.out = &m.chans[m.Topo.IntraChanID(node, ce.ToRouter)]
	e.in = &m.chans[m.Topo.IntraChanID(node, ce.FromRouter)]
	return e
}

// bind registers the endpoint for active-set wakeups and ready-mask bits:
// packet arrivals on the ejection side, credit returns on the injection side.
func (e *EndpointAdapter) bind() {
	e.in.BindReceiver(e.m.Engine, e.cid, &e.inMask, 0)
	e.out.BindSender(e.m.Engine, e.cid, &e.credMask, 0)
}

// Inject queues a packet for transmission. The packet's route state must be
// initialized (Machine.MakePacket does this).
func (e *EndpointAdapter) Inject(p *packet.Packet) {
	p.InjectedAt = e.m.Engine.Now()
	if p.NotBefore == 0 {
		nb := p.InjectedAt + e.m.Cfg.EndpointPipeline
		if nb <= e.sched {
			nb = e.sched + 1 // pipelined sends: one per cycle
		}
		p.NotBefore = nb
		e.sched = nb
	}
	e.inj.link(p)
	e.queued++
	if e.m.Engine.Parallel() {
		// Traffic sources run inside shard workers; the machine-wide
		// injection count is the one piece of shared state they touch.
		atomic.AddUint64(&e.m.injected, 1)
	} else {
		e.m.injected++
	}
	// Wake for the packet's earliest send cycle (clamped by the engine if it
	// is in the past or mid-step). Covers injections from outside the run
	// loop — between Run calls the endpoint may hold no other wake.
	e.m.Engine.Wake(e.cid, p.NotBefore)
	if e.m.checks != nil {
		e.m.checks.OnInject(p, p.InjectedAt)
	}
	if e.m.tel != nil {
		e.m.tel.OnInject(p)
	}
}

// Tick implements sim.Component. In active-set mode the endpoint sleeps until
// its head packet could leave (tick's result): its NotBefore cycle and the
// injection channel's serializer, or, short of credit, the credit return that
// wakes it. A lazy Source is polled on exactly the cycles scan mode would
// poll it — those that start with the software queue at or below the refill
// mark, which only a send brings it down to — so injection timestamps match.
func (e *EndpointAdapter) Tick(now uint64) {
	if at := e.tick(now); at != never {
		e.m.Engine.Wake(e.cid, at)
	}
}

// tick steps the endpoint one cycle and returns the next cycle it has work
// at, or never when only an arrival, a credit return or an Inject can give it
// some.
func (e *EndpointAdapter) tick(now uint64) uint64 {
	if e.credMask != 0 {
		e.out.AbsorbCredits(now)
	}

	// Ejection: drain arrivals and return credits. In a parallel phase the
	// delivery hooks run at the barrier (in component-id order, as a serial
	// step would), because they touch machine-wide state.
	for e.inMask != 0 {
		p, ok := e.in.Recv(now)
		if !ok {
			break
		}
		e.in.ReturnCredit(now, p.CurVC, p.Size)
		p.DeliveredAt = now
		p.Tracepoint("endpoint deliver", now)
		if e.m.Engine.Parallel() {
			sh := &e.m.shards[e.shard]
			sh.deliv = append(sh.deliv, delivEnt{e: e, p: p})
		} else {
			e.m.deliver(e, p, now)
		}
	}

	// Top up the software queue from the lazy source so the injection
	// pipeline stays full (one send per cycle once primed).
	if e.Source != nil {
		for e.queued <= int(e.m.Cfg.EndpointPipeline)+1 {
			p := e.Source()
			if p == nil {
				e.Source = nil
				break
			}
			e.Inject(p)
		}
	}

	// Injection: at most one packet per cycle onto the endpoint channel.
	p := e.inj.first
	if p == nil {
		return never
	}
	if p.NotBefore > now {
		return p.NotBefore
	}
	var vc uint8
	if p.SourceRoute == nil {
		vc = uint8(route.PhysVC(e.m.Cfg.Scheme, topo.GroupM, p.Route.Class, p.Route.MVC))
	}
	if at := e.out.SendableAt(vc, p.Size); at > now {
		return at
	}
	e.inj.unlink()
	e.queued--
	e.m.send(now, e.out, p, vc)
	p.Tracepoint("endpoint inject", now)
	e.m.Engine.ProgressAt(int(e.shard))
	if e.queued == 0 && e.Source == nil {
		return never
	}
	// The next packet, or the source's refill, is looked at next cycle.
	return now + 1
}
