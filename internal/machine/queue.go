package machine

import "anton2/internal/packet"

// vcq is one virtual-channel input queue with head-of-line route state.
// Capacity is enforced by upstream credits, not by the queue itself.
type vcq struct {
	pkts []*packet.Packet
	head int

	// Head-of-line state, valid while routed is true.
	routed  bool
	outPort int8
	outVC   uint8
	readyAt uint64

	// branches holds a multicast head's replicated copies, sent one per
	// cycle from the single buffered original (channel-adapter ingress
	// replication); the head pops and its credit returns only after the
	// last branch leaves.
	branches []*packet.Packet
}

func (q *vcq) empty() bool { return q.head >= len(q.pkts) }

func (q *vcq) headPkt() *packet.Packet { return q.pkts[q.head] }

func (q *vcq) push(p *packet.Packet) { q.pkts = append(q.pkts, p) }

// pop removes the head packet and invalidates the head route state so the
// next packet is routed afresh.
func (q *vcq) pop() *packet.Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head == len(q.pkts) {
		q.head = 0
		q.pkts = q.pkts[:0]
	} else if q.head >= 16 && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		for i := n; i < len(q.pkts); i++ {
			q.pkts[i] = nil
		}
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	q.routed = false
	q.branches = nil
	return p
}

// A set of VC queues (a router port's, an adapter's egress or ingress side)
// carries an occupancy mask beside it: bit v is set exactly while queue v is
// non-empty. pushVC and popVC are the only queue mutators on the tick path,
// so the scans that nominate heads (SA1, adapter egress and ingress) visit
// occupied queues only — in ascending VC order, the order a full walk would
// have found them in.

// pushVC appends p to qs[vc] and marks the VC occupied.
func pushVC(qs []vcq, occ *uint32, vc uint8, p *packet.Packet) {
	qs[vc].push(p)
	*occ |= 1 << vc
}

// popVC removes the head of qs[vc], clearing the VC's occupancy bit when that
// empties the queue.
func popVC(qs []vcq, occ *uint32, vc uint8) *packet.Packet {
	q := &qs[vc]
	p := q.pop()
	if q.empty() {
		*occ &^= 1 << vc
	}
	return p
}

// flits returns the queued flit count (for buffer occupancy accounting).
func (q *vcq) flits() int {
	total := 0
	for i := q.head; i < len(q.pkts); i++ {
		total += int(q.pkts[i].Size)
	}
	return total
}
