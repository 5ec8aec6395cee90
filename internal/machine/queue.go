package machine

import (
	"math"
	"math/bits"

	"anton2/internal/arbiter"
	"anton2/internal/fabric"
	"anton2/internal/packet"
)

// never is the wake of a component that has nothing to do until one of its
// channels wakes it: an arrival, a credit return or an ack.
const never = math.MaxUint64

// pktList is a FIFO of packets linked through packet.Packet.Next, first to
// last: a VC queue, an endpoint's injection queue or an ingress VC's
// multicast branches. A list owns no storage of its own, and a packet sits
// in at most one list (a shard's free list, a stack through the same link,
// included).
type pktList struct {
	first, last *packet.Packet
}

func (l *pktList) empty() bool { return l.first == nil }

// link appends p, which is in no list, at the tail.
func (l *pktList) link(p *packet.Packet) {
	if l.last == nil {
		l.first = p
	} else {
		l.last.Next = p
	}
	l.last = p
}

// unlink removes the head of a non-empty list and returns it, its Next
// cleared.
func (l *pktList) unlink() *packet.Packet {
	p := l.first
	if l.first, p.Next = p.Next, nil; l.first == nil {
		l.last = nil
	}
	return p
}

// count returns the number of listed packets.
func (l *pktList) count() int {
	n := 0
	for p := l.first; p != nil; p = p.Next {
		n++
	}
	return n
}

// vcq is one virtual-channel input queue with head-of-line route state.
// Capacity is enforced by upstream credits, not by the queue itself.
type vcq struct {
	pktList

	// Head-of-line state, valid while the head is routed (out is non-nil):
	// the route decision (output channel and VC; a router also records the
	// output port), the first cycle the head may bid, and — cached so that
	// arbitration and the wake computation need not load the head packet —
	// its flit count and weight-pattern label. A multicast branch is a clone
	// of the head, so the cache is also every pending branch's.
	outPort int8
	outVC   uint8
	size    uint8
	pat     uint8
	readyAt uint64
	out     *fabric.Channel
}

// markRouted records the head's route decision — output channel and VC, and
// the first cycle it may bid — and caches the head's size and pattern label.
// (A router sets outPort itself; an adapter's queues have one output.)
func (q *vcq) markRouted(out *fabric.Channel, outVC uint8, readyAt uint64) {
	q.out, q.outVC, q.readyAt, q.size, q.pat = out, outVC, readyAt, q.first.Size, q.first.PatternID
}

// vcset is one component's set of VC input queues — a router port's, or a
// channel adapter's egress or ingress side — with the arbiter over their
// heads. Bit v of occ is set exactly while queue v is non-empty: push and pop
// are the only queue mutators on the tick path, so nominate visits occupied
// queues only, in ascending VC order, the order a full walk would have found
// them in.
type vcset struct {
	vcs []vcq
	occ uint32
	arb arbiter.Arbiter
}

// headRouter is a component's route computation for the new head of queue vc:
// it sets the head's route with vcq.markRouted.
type headRouter interface {
	route(now uint64, q *vcq, vc int)
}

// push appends p to the queue of its arrival VC.
func (s *vcset) push(p *packet.Packet) {
	s.vcs[p.CurVC].link(p)
	s.occ |= 1 << p.CurVC
}

// pop removes the head of queue vc and invalidates the head route state so
// the next packet is routed afresh.
func (s *vcset) pop(vc int) *packet.Packet {
	q := &s.vcs[vc]
	p := q.unlink()
	if q.empty() {
		s.occ &^= 1 << vc
	}
	q.out = nil
	return p
}

// nominate routes the new heads (through hr), files every head that can
// send at now in req, and picks one of them, g, with the set's arbiter (g
// is meaningless when req is 0). pats is the arbiter's scratch of pattern
// labels. A head that cannot send names the next cycle to look at it in
// wake: the end of its pipeline delay, then the cycle its output's
// serializer or stall lets it go (none while it is short of credit: the
// credit return wakes the component).
func (s *vcset) nominate(now uint64, pats []uint8, hr headRouter) (g int, req, wake uint64) {
	wake = never
	for m := s.occ; m != 0; m &= m - 1 {
		vci := bits.TrailingZeros32(m)
		q := &s.vcs[vci]
		if q.out == nil {
			hr.route(now, q, vci)
		}
		at := q.readyAt
		if at <= now {
			at = q.out.SendableAt(q.outVC, q.size)
		}
		if at > now {
			wake = min(wake, at)
			continue
		}
		req |= 1 << vci
		pats[vci] = q.pat
	}
	if req != 0 {
		g = s.arb.Pick(req, pats)
	}
	return g, req, wake
}

// flits returns the queued flit count (for buffer occupancy accounting).
func (q *vcq) flits() int {
	total := 0
	for p := q.first; p != nil; p = p.Next {
		total += int(p.Size)
	}
	return total
}

// send puts p on ch at VC vc and reports the send to the invariant suite.
func (m *Machine) send(now uint64, ch *fabric.Channel, p *packet.Packet, vc uint8) {
	ch.Send(now, p, vc)
	if m.checks != nil {
		m.checks.OnSend(p, ch, vc, now)
	}
}

// forward moves the head of queue vc of s, routed and able to send, onto its
// output channel, returns its credit upstream on in and notes progress for
// the given shard. It returns the packet moved.
func (m *Machine) forward(now uint64, s *vcset, vc int, in *fabric.Channel, shard int32) *packet.Packet {
	q := &s.vcs[vc]
	out, outVC := q.out, q.outVC
	p := s.pop(vc)
	m.send(now, out, p, outVC)
	in.ReturnCredit(now, uint8(vc), p.Size)
	m.Engine.ProgressAt(int(shard))
	return p
}
