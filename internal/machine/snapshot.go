package machine

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"anton2/internal/fabric"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/wire"
)

// This file externalizes the machine's complete mutable state for
// checkpointing, as one binary record encoded straight from live state and
// decoded straight back into it. A snapshot taken between engine steps,
// restored into a freshly built machine with the same Config, continues the
// simulation bit-identically to the uninterrupted run — across engine modes
// and shard counts, because between steps all staged cross-shard traffic has
// been flushed and snapshots are therefore engine- and shard-invariant.
//
// The record is spelled once, by Machine.state, in three parts: the header
// (version, clock, counters, the shape the record assumes, the body's
// length as 8 fixed bytes); the body (per node its routers, channel adapters
// and endpoints, then every channel, then — each only when attached — the
// fault layer, the invariant suite and the telemetry collector, each layer
// through its own State method); and the packet table. The same walk
// encodes or decodes, as its wire.Codec says, and branches on the direction
// only where the two really differ: packet references (interned, or
// resolved against the table), the body length (patched in after the body,
// or used to read the table first), pipe entries (walked, or re-sent with
// their wakes) and values rebuilt on decode (queued totals, the fault
// counters' split between the layer and its links).
//
// Packets are interned into the table by pointer identity, in first-seen
// order of the body's walk: the same *packet.Packet may legally sit in a
// retransmission window and in a channel pipe at once (a resent frame), and
// collapsing such aliases on restore is required for the link layer to
// release the right buffers. The table comes last so that one pass over the
// holders both assigns and writes the indices; a decoder reads it first. The
// decoder holds its input to the encoder's discipline — indices in
// first-reference order, every table entry referenced, every number
// minimally spelled — so whatever it accepts, the restored machine
// re-encodes to the same bytes.
//
// Every packet list a component keeps — a VC queue, an ingress VC's
// multicast branches, an endpoint's injection queue — is coded by one walk,
// snapWalk.queue: its count, then one packet reference per packet, first to
// last.
//
// Out of scope by design: the shards' free lists (unobservable — pooled
// packets are fully Reset on reuse) and, without a telemetry collector, a
// trace some caller started on a packet. Packets carry no identity but their
// place in the table, so a sharded machine's record equals a serial one's
// byte for byte.

// snapshotVersion is the first number of a snapshot record. It changes with
// any change to the record; Restore refuses every other version.
const snapshotVersion = 4

// Snapshot is the machine's complete mutable state at cycle Now, where Now is
// the next cycle the engine would process: the clock, for whoever files the
// snapshot, and the versioned binary record.
type Snapshot struct {
	Now  uint64 `json:"now"`
	Data []byte `json:"data"`
}

// snapWalk is one walk of the machine's state through a codec, with the
// packet table the record ends with. Encoding interns packets into the table
// by pointer identity in first-seen order; decoding resolves indices into
// the table it decoded first. A machine keeps one and reuses it, so a steady
// run of snapshots allocates nothing.
type snapWalk struct {
	wire.Codec
	idx  map[*packet.Packet]uint64 // encoding: a packet's table index
	list []*packet.Packet          // the table, in index order
	seen int                       // decoding: table entries referenced so far
	// ref is the pkt method, bound once: the form channels and the
	// collector take it in.
	ref func(p *packet.Packet, nilable bool) *packet.Packet
}

// pkt codes a reference to packet p as its table index and returns the
// packet referenced: p itself when encoding, the decoded one when decoding.
// With nilable, nil is 0 and a packet is 1 + its index. The encoder numbers
// packets in the order it first meets them, so the only indices a decoder
// accepts are those already seen and the next unseen one.
func (w *snapWalk) pkt(p *packet.Packet, nilable bool) *packet.Packet {
	var i, off uint64
	if nilable {
		off = 1
	}
	if !w.Decoding() && p != nil {
		j, ok := w.idx[p]
		if !ok {
			j = uint64(len(w.list))
			w.idx[p] = j
			w.list = append(w.list, p)
		}
		i = j + off
	}
	if w.Uvarint(&i); !w.Decoding() {
		return p
	}
	if nilable && i == 0 {
		return nil
	}
	if i -= off; i > uint64(w.seen) || i >= uint64(len(w.list)) {
		w.Fail("packet index %d out of first-reference order (%d referenced of %d)", i, w.seen, len(w.list))
		return nil
	}
	if i == uint64(w.seen) {
		w.seen++
	}
	return w.list[i]
}

// queue codes l's packets, first to last, behind their count, and returns
// the count; decoding links them into l, which is empty. The body walks every
// list before any other packet holder, and a packet sits in at most one
// list, so each listed packet is referenced there for the first time: a
// decoder refuses any other, which would link one packet into two lists.
func (w *snapWalk) queue(l *pktList) int {
	n := l.count()
	if w.Len(&n, 1); !w.Decoding() {
		for p := l.first; p != nil; p = p.Next {
			w.pkt(p, false)
		}
		return n
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		seen := w.seen
		if p := w.pkt(nil, false); w.seen == seen {
			w.Fail("queued packet referenced before its queue")
		} else {
			l.link(p)
		}
	}
	return n
}

// queues codes a component's queue set — its occupancy mask, then per
// occupied queue its packets and, once made, its head-of-line route decision
// and the head's pending multicast branches — and returns the packets it
// holds. The record names a head's output by port, one of ports; out maps a
// port to its channel. branches holds the set's branch lists, one per VC, at
// a replicating site (adapter ingress) and is nil elsewhere, where every
// list is empty. The occupancy mask is decoded in place.
func (w *snapWalk) queues(s *vcset, branches []pktList, ports int, out func(port int) *fabric.Channel) (queued int) {
	mask := uint64(s.occ)
	if w.Uvarint(&mask); mask>>len(s.vcs) != 0 {
		w.Fail("queue set occupancy %#x names more than %d VCs", mask, len(s.vcs))
		return 0
	}
	s.occ = uint32(mask)
	for m := mask; m != 0; m &= m - 1 {
		vc := bits.TrailingZeros64(m)
		q := &s.vcs[vc]
		queued += w.queue(&q.pktList)
		routed := q.out != nil
		if w.Bool(&routed); routed {
			port := uint8(q.outPort)
			w.Byte(&port)
			w.Byte(&q.outVC)
			w.Uvarint(&q.readyAt)
			br := &pktList{}
			if branches != nil {
				br = &branches[vc]
			}
			if w.queue(br) > 0 && branches == nil {
				w.Fail("multicast branches at a queue that does not replicate")
			}
			if q.outPort = int8(port); q.outPort < 0 || int(q.outPort) >= ports || q.outVC >= fabric.MaxVCs {
				w.Fail("head-of-line route to port %d VC %d", q.outPort, q.outVC)
			} else if w.Decoding() && !q.empty() {
				// The head's output channel, size and label are
				// derived, not recorded.
				q.out, q.size, q.pat = out(int(q.outPort)), q.first.Size, q.first.PatternID
			}
		}
		if q.empty() {
			w.Fail("occupied queue with no packets")
		}
	}
	return queued
}

// minPacketBytes is the shortest packet record: what bounds a table's packet
// count by the bytes that remain.
const minPacketBytes = 30

// pktState codes one packet record, refusing fields a later hop would index
// a table with.
func (m *Machine) pktState(c *wire.Codec, p *packet.Packet) {
	for _, v := range [...]*int{&p.Src.Node, &p.Src.Ep, &p.Dst.Node, &p.Dst.Ep} {
		c.Int(v)
	}
	for _, v := range [...]*uint8{&p.Size, &p.PatternID, &p.CurVC, &p.TorusHops} {
		c.Byte(v)
	}
	p.Route.State(c)
	mgroup := int64(p.MGroup)
	c.Varint(&mgroup)
	p.MGroup = int(mgroup)
	for _, v := range [...]*uint64{&p.InjectedAt, &p.DeliveredAt, &p.ArrivedAt, &p.NotBefore} {
		c.Uvarint(v)
	}
	// An empty payload or source route decodes as nil, which is how the
	// tick path spells "none".
	c.Bytes(&p.Payload)
	c.Bytes(&p.SourceRoute)
	c.Int(&p.SRIdx)
	if m.checks != nil {
		for _, v := range [...]*uint8{&p.SeenMVC, &p.SeenTVC, &p.SeenDim} {
			c.Byte(v)
		}
	}
	if m.tel != nil {
		packet.TraceState(c, &p.Trace)
	}
	nodes := m.Topo.NumNodes()
	if p.Src.Node >= nodes || p.Dst.Node >= nodes || p.Src.Ep >= topo.NumEndpoints || p.Dst.Ep >= topo.NumEndpoints ||
		p.Size < 1 || p.Size > packet.MaxFlits || p.CurVC >= fabric.MaxVCs ||
		p.MGroup < -1 || p.SRIdx > len(p.SourceRoute) {
		c.Fail("packet record field out of range")
	}
}

// snapshotShape is what a snapshot record assumes of the machine it is
// restored into, beyond what the build constants fix: node and channel
// counts, VC queues per router port and per adapter side, arbiter kind, and
// whether the fault layer, the invariant suite and the telemetry collector
// exist.
func (m *Machine) snapshotShape() [8]uint64 {
	has := func(attached bool) uint64 {
		if attached {
			return 1
		}
		return 0
	}
	return [8]uint64{
		uint64(len(m.nodes)), uint64(len(m.chans)), uint64(route.MaxTotalVCs(m.Cfg.Scheme)),
		uint64(route.TotalVCs(m.Cfg.Scheme, topo.GroupT)), uint64(m.Cfg.Arbiter),
		has(m.flt != nil), has(m.checks != nil), has(m.tel != nil),
	}
}

// state walks the whole record: header, body and packet table. Encoding
// writes the body first, interning packets, and patches its length into the
// header before it appends the table; decoding reads the table first, so
// that the body's indices resolve into it.
func (m *Machine) state(w *snapWalk) {
	if m.flt != nil && m.flt.fatal != nil {
		w.Fail("cannot checkpoint after a fatal fault: %w", m.flt.fatal)
		return
	}
	for si := range m.shards {
		if len(m.shards[si].deliv) != 0 {
			w.Fail("pending deferred deliveries")
			return
		}
	}
	version := uint64(snapshotVersion)
	if w.Uvarint(&version); version != snapshotVersion {
		w.Fail("version %d, want %d", version, snapshotVersion)
		return
	}
	now := m.Engine.Now()
	for _, v := range [...]*uint64{&now, &m.injected, &m.delivered} {
		w.Uvarint(v)
	}
	shape, want := m.snapshotShape(), m.snapshotShape()
	for i := range shape {
		w.Uvarint(&shape[i])
	}
	if shape != want {
		w.Fail("snapshot of a machine with [nodes channels router-VCs adapter-VCs arbiter-kind fault check telemetry] = %v, this one has %v", shape, want)
		return
	}
	var bodyLen uint64
	at := len(w.Buf())
	w.Uint64(&bodyLen)
	if !w.Decoding() {
		m.body(w)
		binary.LittleEndian.PutUint64(w.Buf()[at:], uint64(len(w.Buf())-at-8))
		m.table(w)
		return
	}

	in := w.Buf()
	if bodyLen > uint64(len(in)) {
		w.Fail("%w", wire.ErrCorrupt)
		return
	}
	w.Codec = *wire.NewDecoder(in[bodyLen:])
	if m.table(w); w.Err() == nil && len(w.Buf()) != 0 {
		w.Fail("%d bytes after the packet table", len(w.Buf()))
	}
	if w.Err() != nil {
		return
	}
	m.Engine.ResetTo(now)
	w.Codec = *wire.NewDecoder(in[:bodyLen])
	if m.body(w); w.Err() == nil && (len(w.Buf()) != 0 || w.seen != len(w.list)) {
		w.Fail("body leaves %d bytes unread and %d of %d packets unreferenced", len(w.Buf()), len(w.list)-w.seen, len(w.list))
	}
}

// table codes the packet table: its count, then each packet's record.
func (m *Machine) table(w *snapWalk) {
	n := len(w.list)
	if w.Len(&n, minPacketBytes); n != len(w.list) {
		pkts := make([]packet.Packet, n)
		for i := range pkts {
			w.list = append(w.list, &pkts[i])
		}
	}
	for _, p := range w.list {
		m.pktState(&w.Codec, p)
	}
}

// body codes every component, in the order it lists them.
func (m *Machine) body(w *snapWalk) {
	c := &w.Codec
	for i := range m.nodes {
		node := &m.nodes[i]
		for _, rt := range node.Routers {
			for pi := range rt.ports {
				ps := &rt.ports[pi]
				if n := w.queues(&ps.vcset, nil, len(rt.ports), func(p int) *fabric.Channel { return rt.ports[p].out }); w.Decoding() {
					rt.queued += n
				}
				ps.arb.State(c)
				rt.sa2[pi].State(c)
				w.Uvarint(&rt.inBusy[pi])
			}
		}
		for _, a := range node.Adapters {
			if n := w.queues(&a.eg, nil, 1, func(int) *fabric.Channel { return a.torusOut }) +
				w.queues(&a.ing, a.branches, 1, func(int) *fabric.Channel { return a.toRouter }); w.Decoding() {
				a.queued = n
			}
			a.eg.arb.State(c)
			a.ing.arb.State(c)
		}
		for _, e := range node.Endpoints {
			if n := w.queue(&e.inj); w.Decoding() {
				e.queued = n
			}
			w.Uvarint(&e.sched)
		}
		if w.Err() != nil {
			return
		}
	}
	for i := range m.chans {
		m.chans[i].State(c, w.ref)
	}
	if f := m.flt; f != nil {
		f.inj.State(c)
		cnt := f.counters()
		if cnt.State(c); w.Decoding() {
			// Which of the layer and its links counted an event is
			// unobservable; the whole restored total goes to the layer
			// (counters() sums them).
			f.cnt = cnt
		}
		for i := range f.links {
			f.links[i].LinkState(c, w.ref)
		}
	}
	if m.checks != nil {
		m.checks.State(c)
	}
	if m.tel != nil {
		m.tel.State(c, w.ref)
	}
}

// Snapshot captures the machine's complete mutable state: AppendSnapshot into
// a fresh buffer, beside the clock.
func (m *Machine) Snapshot() (*Snapshot, error) {
	data, err := m.AppendSnapshot(nil)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Now: m.Engine.Now(), Data: data}, nil
}

// AppendSnapshot appends the machine's snapshot record to b. It must be
// called between engine steps (an engine observer is one such place) and
// refuses to run after a fatal fault or with unflushed cross-shard traffic —
// the latter cannot happen between steps, so it is a consistency check. On
// an error b is returned as it came.
func (m *Machine) AppendSnapshot(b []byte) ([]byte, error) {
	w := &m.snap
	if w.idx == nil {
		w.idx = make(map[*packet.Packet]uint64)
		w.ref = w.pkt
	}
	defer func() {
		clear(w.idx)
		clear(w.list)
		w.list = w.list[:0]
		w.Codec = wire.Codec{}
	}()
	w.Codec = *wire.NewEncoder(b)
	if m.state(w); w.Err() != nil {
		return b, fmt.Errorf("machine: snapshot: %w", w.Err())
	}
	return w.Buf(), nil
}

// Restore loads a snapshot into a freshly built machine with the same Config:
// RestoreSnapshot of its record, which must agree with it on the clock.
func (m *Machine) Restore(s *Snapshot) error {
	if err := m.RestoreSnapshot(s.Data); err != nil {
		return err
	}
	if s.Now != m.Engine.Now() {
		return fmt.Errorf("machine: snapshot filed under cycle %d holds cycle %d", s.Now, m.Engine.Now())
	}
	return nil
}

// RestoreSnapshot loads a snapshot record into a freshly built machine with
// the same Config (same shape, scheme, seed, fault spec — engine mode and
// shard count are free to differ: snapshots are engine-invariant). It resets
// the engine clock to the snapshot cycle, fills every component (rebuilding
// queued totals and the VC-occupancy masks from the queues), re-issues the
// ready bits and wakes implied by in-flight traffic, and finally wakes every
// component once at the restore cycle — spurious ticks are no-ops by the
// active-set contract, so the blanket wake restores schedule completeness
// without affecting results. It never panics on arbitrary bytes; after an
// error the machine may be partially filled and must be discarded.
func (m *Machine) RestoreSnapshot(data []byte) error {
	if m.Engine.Now() != 0 || m.injected != 0 || m.delivered != 0 {
		return fmt.Errorf("machine: restore requires a freshly built machine")
	}
	w := &snapWalk{Codec: *wire.NewDecoder(data)}
	w.ref = w.pkt
	if m.state(w); w.Err() != nil {
		return fmt.Errorf("machine: snapshot: %w", w.Err())
	}
	m.Engine.WakeAll()
	return nil
}
