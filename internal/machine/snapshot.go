package machine

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"anton2/internal/arbiter"
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
// Record order (every integer a wire varint unless noted):
//
//	header  version, now, injected, delivered, nextID, the machine's shape
//	        (snapshotShape), body length (8 bytes, fixed)
//	body    per node: routers (per port: queue set, SA1 and SA2 arbiter
//	        positions, crossbar-input busy cycle), channel adapters (egress
//	        and ingress queue sets, two arbiter positions), endpoints
//	        (software queue, send pipeline position);
//	        then every channel (fabric.Channel.AppendState); then, under
//	        fault injection, the injector streams, the summed counters and
//	        every reliable link (presence, sender, receiver, window, frame
//	        metadata, control pipe)
//	table   packet count, then one record per packet
//
// A queue set is its occupancy mask, then the occupied queues only: packet
// indices behind a count, then the head-of-line route decision if one has
// been made. Queued totals and occupancy masks are rebuilt from the queues.
//
// Packets are interned into the table by pointer identity, in first-seen
// order of the traversal above: the same *packet.Packet may legally sit in a
// retransmission window and in a channel pipe at once (go-back-N Resend), and
// collapsing such aliases on restore is required for the link layer to
// release the right buffers. The table comes last so that one pass over the
// holders both assigns and writes the indices. The decoder holds its input to
// the encoder's discipline — indices in first-reference order, every table
// entry referenced, every number minimally spelled — so whatever it accepts,
// the restored machine re-encodes to the same bytes.
//
// Out of scope by design: the free-packet pool (unobservable — pooled
// packets are fully Reset on reuse and IDs come from NextID), the invariant
// suite and telemetry (Snapshot refuses to run with either attached), and
// per-packet traces (refused likewise; tracing is a diagnostic mode).

// snapshotVersion is the first number of a snapshot record. It changes with
// any change to the record order above; Restore refuses every other version.
const snapshotVersion = 2

// Snapshot is the machine's complete mutable state at cycle Now, where Now is
// the next cycle the engine would process: the clock, for whoever files the
// snapshot, and the versioned binary record.
type Snapshot struct {
	Now  uint64 `json:"now"`
	Data []byte `json:"data"`
}

// pktTable interns packets by pointer identity in first-seen order. A machine
// keeps one and reuses it, so a steady run of snapshots allocates nothing.
type pktTable struct {
	idx    map[*packet.Packet]uint64
	list   []*packet.Packet
	traced *packet.Packet
	// index is the intern method, bound once: the form channels take it in.
	index func(*packet.Packet) uint64
}

func (t *pktTable) intern(p *packet.Packet) uint64 {
	if i, ok := t.idx[p]; ok {
		return i
	}
	i := uint64(len(t.list))
	t.idx[p] = i
	t.list = append(t.list, p)
	if p.Trace != nil && t.traced == nil {
		t.traced = p
	}
	return i
}

func (t *pktTable) appendPkts(b []byte, pkts []*packet.Packet) []byte {
	b = wire.AppendUvarint(b, uint64(len(pkts)))
	for _, p := range pkts {
		b = wire.AppendUvarint(b, t.intern(p))
	}
	return b
}

// appendQueues appends a queue set: see the record order above.
func (t *pktTable) appendQueues(b []byte, qs []vcq, occ uint32) []byte {
	b = wire.AppendUvarint(b, uint64(occ))
	for m := occ; m != 0; m &= m - 1 {
		q := &qs[bits.TrailingZeros32(m)]
		b = t.appendPkts(b, q.pkts[q.head:])
		b = wire.AppendBool(b, q.routed)
		if q.routed {
			b = append(b, uint8(q.outPort), q.outVC)
			b = wire.AppendUvarint(b, q.readyAt)
			b = t.appendPkts(b, q.branches)
		}
	}
	return b
}

func appendPacket(b []byte, p *packet.Packet) []byte {
	b = wire.AppendUvarint(b, p.ID)
	for _, v := range [...]int{p.Src.Node, p.Src.Ep, p.Dst.Node, p.Dst.Ep} {
		b = wire.AppendUvarint(b, uint64(v))
	}
	b = append(b, p.Size, p.PatternID, p.CurVC, p.TorusHops)
	b = p.Route.AppendTo(b)
	b = wire.AppendVarint(b, int64(p.MGroup))
	for _, v := range [...]uint64{p.InjectedAt, p.DeliveredAt, p.ArrivedAt, p.NotBefore} {
		b = wire.AppendUvarint(b, v)
	}
	b = wire.AppendBytes(b, p.Payload)
	b = wire.AppendBytes(b, p.SourceRoute)
	return wire.AppendUvarint(b, uint64(p.SRIdx))
}

// minPacketBytes is the shortest packet record: what bounds a table's packet
// count by the bytes that remain.
const minPacketBytes = 31

// readPacket reads one packet record, refusing fields a later hop would index
// a table with.
func (m *Machine) readPacket(r *wire.Reader, p *packet.Packet) {
	p.ID = r.Uvarint()
	src, sep, dst, dep := r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	hdr := r.Next(4)
	if hdr == nil {
		return
	}
	p.Size, p.PatternID, p.CurVC, p.TorusHops = hdr[0], hdr[1], hdr[2], hdr[3]
	p.Route.ReadFrom(r)
	p.MGroup = int(r.Varint())
	p.InjectedAt, p.DeliveredAt, p.ArrivedAt, p.NotBefore = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	// An empty payload or source route restores as nil, which is how the
	// tick path spells "none".
	p.Payload = append([]byte(nil), r.Bytes()...)
	p.SourceRoute = append([]uint8(nil), r.Bytes()...)
	sr := r.Uvarint()
	nodes := uint64(m.Topo.NumNodes())
	if src >= nodes || dst >= nodes || sep >= topo.NumEndpoints || dep >= topo.NumEndpoints ||
		p.Size < 1 || p.Size > packet.MaxFlits || p.CurVC >= fabric.MaxVCs ||
		p.MGroup < -1 || sr > uint64(len(p.SourceRoute)) {
		r.Fail("machine: packet %d: field out of range", p.ID)
		return
	}
	p.Src, p.Dst = topo.NodeEp{Node: int(src), Ep: int(sep)}, topo.NodeEp{Node: int(dst), Ep: int(dep)}
	p.SRIdx = int(sr)
}

// snapshotShape is what a snapshot record assumes of the machine it is
// restored into, beyond what the build constants fix: node and channel
// counts, VC queues per router port and per adapter side, arbiter kind, and
// whether the fault layer exists.
func (m *Machine) snapshotShape() [6]uint64 {
	var fault uint64
	if m.flt != nil {
		fault = 1
	}
	return [6]uint64{
		uint64(len(m.nodes)), uint64(len(m.chans)), uint64(route.MaxTotalVCs(m.Cfg.Scheme)),
		uint64(route.TotalVCs(m.Cfg.Scheme, topo.GroupT)), uint64(m.Cfg.Arbiter), fault,
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
// refuses to run unless the config is Checkpointable, with per-packet tracing
// active, after a fatal fault, or with unflushed cross-shard traffic — the
// last cannot happen between steps, so it is a consistency check. On an error
// b is returned as it came.
func (m *Machine) AppendSnapshot(b []byte) ([]byte, error) {
	if err := m.Cfg.Checkpointable(); err != nil {
		return b, err
	}
	if m.flt != nil && m.flt.fatal != nil {
		return b, fmt.Errorf("machine: cannot checkpoint after a fatal fault: %w", m.flt.fatal)
	}
	for si := range m.shards {
		if len(m.shards[si].deliv) != 0 {
			return b, fmt.Errorf("machine: snapshot with pending deferred deliveries")
		}
	}
	t := &m.snapTab
	if t.idx == nil {
		t.idx = make(map[*packet.Packet]uint64)
		t.index = t.intern
	}
	defer func() {
		clear(t.idx)
		clear(t.list)
		t.list, t.traced = t.list[:0], nil
	}()

	orig := b
	for _, v := range [...]uint64{snapshotVersion, m.Engine.Now(), m.injected, m.delivered, m.nextID.Load()} {
		b = wire.AppendUvarint(b, v)
	}
	for _, v := range m.snapshotShape() {
		b = wire.AppendUvarint(b, v)
	}
	body := len(b) + 8
	b = wire.AppendUint64(b, 0)

	var err error
	arb := func(a arbiter.Arbiter) {
		if err == nil {
			b, err = arbiter.AppendState(b, a)
		}
	}
	for _, node := range m.nodes {
		for _, r := range node.Routers {
			for pi := range r.ports {
				b = t.appendQueues(b, r.ports[pi].vcs, r.ports[pi].occ)
				arb(r.sa1[pi])
				arb(r.sa2[pi])
				b = wire.AppendUvarint(b, r.inBusy[pi])
			}
		}
		for _, a := range node.Adapters {
			b = t.appendQueues(b, a.eg, a.egOcc)
			b = t.appendQueues(b, a.ing, a.ingOcc)
			arb(a.egArb)
			arb(a.inArb)
		}
		for _, e := range node.Endpoints {
			b = t.appendPkts(b, e.swq[e.head:])
			b = wire.AppendUvarint(b, e.sched)
		}
	}
	for _, ch := range m.chans {
		if err == nil {
			b, err = ch.AppendState(b, t.index)
		}
	}
	if f := m.flt; f != nil && err == nil {
		b = f.inj.AppendStreams(b)
		c := f.counters()
		b = c.AppendState(b)
		for _, rl := range f.rlinks {
			b = wire.AppendBool(b, rl != nil)
			if rl == nil {
				continue
			}
			if len(rl.metaStage) != 0 || len(rl.ctrlStage) != 0 {
				err = fmt.Errorf("machine: snapshot with staged link-layer traffic on %s", rl.ch.Name)
				break
			}
			b = rl.rcv.AppendState(rl.snd.AppendState(b))
			b = wire.AppendUvarint(b, uint64(len(rl.win)))
			for _, w := range rl.win {
				b = append(wire.AppendUvarint(b, t.intern(w.p)), w.vc)
			}
			b = wire.AppendUvarint(b, uint64(len(rl.meta)-rl.metaHead))
			for _, mt := range rl.meta[rl.metaHead:] {
				b = wire.AppendBool(append(wire.AppendUvarint(b, mt.seq), mt.vc), mt.corrupt)
			}
			b = wire.AppendUvarint(b, uint64(rl.ctrl.Len()))
			rl.ctrl.Entries(func(at uint64, c linkCtrl) {
				b = wire.AppendBool(wire.AppendUvarint(wire.AppendUvarint(b, at), c.seq), c.nack)
			})
		}
	}
	if err == nil && t.traced != nil {
		err = fmt.Errorf("machine: packet %d has tracing enabled; traced runs cannot be checkpointed", t.traced.ID)
	}
	if err != nil {
		return orig, err
	}
	binary.LittleEndian.PutUint64(b[body-8:], uint64(len(b)-body))

	b = wire.AppendUvarint(b, uint64(len(t.list)))
	for _, p := range t.list {
		b = appendPacket(b, p)
	}
	return b, nil
}

// snapReader is a snapshot's body reader plus its decoded packet table.
type snapReader struct {
	*wire.Reader
	pkts []packet.Packet
	seen uint64 // table entries referenced so far
}

// pktAt resolves a packet-table index. The encoder numbers packets in the
// order it first meets them, so the only acceptable indices are those already
// seen and the next unseen one.
func (d *snapReader) pktAt(i uint64) *packet.Packet {
	if i > d.seen || i >= uint64(len(d.pkts)) {
		d.Fail("machine: packet index %d out of first-reference order (%d referenced of %d)", i, d.seen, len(d.pkts))
		return nil
	}
	if i == d.seen {
		d.seen++
	}
	return &d.pkts[i]
}

func (d *snapReader) readPkts(dst []*packet.Packet) []*packet.Packet {
	for n := d.Count(1); n > 0; n-- {
		dst = append(dst, d.pktAt(d.Uvarint()))
	}
	return dst
}

// readQueues reads a queue set into qs, the queues of a component with the
// given number of output ports, and returns its occupancy mask and the
// number of packets it holds.
func (d *snapReader) readQueues(qs []vcq, ports int) (occ uint32, queued int) {
	mask := d.Uvarint()
	if mask>>len(qs) != 0 {
		d.Fail("machine: queue set occupancy %#x names more than %d VCs", mask, len(qs))
		return 0, 0
	}
	for m := mask; m != 0; m &= m - 1 {
		q := &qs[bits.TrailingZeros64(m)]
		q.pkts = d.readPkts(q.pkts)
		if q.routed = d.Bool(); q.routed {
			q.outPort, q.outVC, q.readyAt = int8(d.Byte()), d.Byte(), d.Uvarint()
			q.branches = d.readPkts(nil)
			if q.outPort < 0 || int(q.outPort) >= ports || q.outVC >= fabric.MaxVCs {
				d.Fail("machine: head-of-line route to port %d VC %d", q.outPort, q.outVC)
			}
		}
		if len(q.pkts) == 0 {
			d.Fail("machine: occupied queue with no packets")
		}
		queued += len(q.pkts)
	}
	return uint32(mask), queued
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
	if err := m.Cfg.Checkpointable(); err != nil {
		return err
	}
	r := wire.NewReader(data)
	if v := r.Uvarint(); v != snapshotVersion && r.Err() == nil {
		return fmt.Errorf("machine: snapshot version %d, want %d", v, snapshotVersion)
	}
	now, injected, delivered, nextID := r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	var shape [6]uint64
	for i := range shape {
		shape[i] = r.Uvarint()
	}
	bodyLen := r.Uint64()
	if bodyLen > uint64(r.Len()) {
		r.Fail("%w", wire.ErrCorrupt)
	}
	d := &snapReader{Reader: wire.NewReader(r.Next(int(bodyLen)))}
	if err := r.Err(); err != nil {
		return fmt.Errorf("machine: snapshot header: %w", err)
	}
	if want := m.snapshotShape(); shape != want {
		return fmt.Errorf("machine: snapshot of a machine with [nodes channels router-VCs adapter-VCs arbiter-kind fault] = %v, this one has %v", shape, want)
	}

	d.pkts = make([]packet.Packet, r.Count(minPacketBytes))
	for i := range d.pkts {
		m.readPacket(r, &d.pkts[i])
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("machine: snapshot packet table: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("machine: %d bytes after the snapshot's packet table", r.Len())
	}

	m.Engine.ResetTo(now)
	m.injected, m.delivered = injected, delivered
	m.nextID.Store(nextID)
	for _, node := range m.nodes {
		for _, rt := range node.Routers {
			for pi := range rt.ports {
				ps := &rt.ports[pi]
				var n int
				ps.occ, n = d.readQueues(ps.vcs, len(rt.ports))
				rt.queued += n
				arbiter.ReadState(d.Reader, rt.sa1[pi])
				arbiter.ReadState(d.Reader, rt.sa2[pi])
				rt.inBusy[pi] = d.Uvarint()
			}
		}
		for _, a := range node.Adapters {
			var neg, ning int
			a.egOcc, neg = d.readQueues(a.eg, 1)
			a.ingOcc, ning = d.readQueues(a.ing, 1)
			a.queued = neg + ning
			arbiter.ReadState(d.Reader, a.egArb)
			arbiter.ReadState(d.Reader, a.inArb)
		}
		for _, e := range node.Endpoints {
			e.swq = d.readPkts(e.swq)
			e.sched = d.Uvarint()
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("machine: snapshot node %d: %w", node.ID, err)
		}
	}
	for _, ch := range m.chans {
		ch.ReadState(d.Reader, d.pktAt)
	}
	if f := m.flt; f != nil {
		f.inj.ReadStreams(d.Reader)
		// The per-shard counter split is unobservable; the whole restored
		// total goes into the injection slot (counters() sums the slots).
		clear(f.cnt)
		f.cnt[f.injSlot()].ReadState(d.Reader)
		for _, rl := range f.rlinks {
			if d.Bool() != (rl != nil) {
				d.Fail("machine: snapshot and machine disagree on a failed link")
			}
			if rl == nil || d.Err() != nil {
				continue
			}
			rl.snd.ReadState(d.Reader)
			rl.rcv.ReadState(d.Reader)
			for n := d.Count(2); n > 0; n-- {
				rl.win = append(rl.win, winEntry{p: d.pktAt(d.Uvarint()), vc: d.Byte()})
			}
			if uint64(len(rl.win)) != rl.snd.Next()-rl.snd.Base() {
				d.Fail("machine: link %s: %d window entries for sequences [%d, %d)", rl.ch.Name, len(rl.win), rl.snd.Base(), rl.snd.Next())
			}
			for n := d.Count(3); n > 0; n-- {
				rl.meta = append(rl.meta, frameMeta{seq: d.Uvarint(), vc: d.Byte(), corrupt: d.Bool()})
			}
			for n := d.Count(3); n > 0; n-- {
				rl.pushCtrl(d.Uvarint(), linkCtrl{seq: d.Uvarint(), nack: d.Bool()})
			}
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("machine: snapshot: %w", err)
	}
	if d.Len() != 0 || d.seen != uint64(len(d.pkts)) {
		return fmt.Errorf("machine: snapshot body leaves %d bytes unread and %d of %d packets unreferenced", d.Len(), uint64(len(d.pkts))-d.seen, len(d.pkts))
	}
	m.Engine.WakeAll()
	return nil
}
