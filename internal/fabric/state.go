package fabric

import (
	"anton2/internal/packet"
	"anton2/internal/wire"
)

// This file is the channels' part of the machine snapshot. Everything a
// Channel accumulates after construction is in its record, in the order
// State lists it; the credit counters at the buffer capacity are left out,
// so an idle channel is a dozen bytes. Wiring (latency, rate, bindings) is
// rebuilt by constructing the machine fresh and is deliberately absent.
//
// Packets are shared pointers: the same *packet.Packet can sit in a
// retransmission window and in the pipe at once (a resent frame), so the
// machine snapshot layer owns packet identity and the record holds indices
// into its packet table.

// State codes the channel's mutable state; ref codes a packet reference
// (never nil here) as an index into the snapshot's packet table and returns
// the packet it names. Channels are snapshotted between engine steps only,
// so staged (deferred) traffic must already be flushed, which the
// phase-barrier merge guarantees. Decoding fills a freshly built channel
// (empty pipes) and re-issues what the in-flight traffic implies: each
// packet sets the bound receiver's ready bit and wakes it at its arrival
// cycle, each credit likewise for the bound sender — the same
// pushPkt/pushCredit the original Send/ReturnCredit went through. A reliable
// channel's headers and acks are in LinkState's record, not this one.
func (ch *Channel) State(c *wire.Codec, ref func(p *packet.Packet, nilable bool) *packet.Packet) {
	if sd := ch.side; sd != nil && (len(sd.stagedPkts) != 0 || len(sd.stagedCreds) != 0 || sd.link != nil && len(sd.link.stagedAcks) != 0) {
		c.Fail("fabric: %s: snapshot with staged traffic", ch.Name(nil))
		return
	}
	var flags uint8 // bit 0: the channel has sent; 1: keeps a lost-credit ledger; 2: tracks energy
	for i, set := range [...]bool{ch.sentAny, ch.lossy, ch.metered} {
		if set {
			flags |= 1 << i
		}
	}
	var spent uint64
	for vc, cr := range ch.credit[:ch.numVCs] {
		if cr != ch.bufFlits {
			spent |= 1 << vc
		}
	}
	numVCs, has := ch.numVCs, flags&^1
	c.Byte(&numVCs)
	c.Byte(&flags)
	if c.Uvarint(&spent); numVCs != ch.numVCs || flags&^1 != has || spent>>numVCs != 0 {
		c.Fail("fabric: %s: record of %d VCs, flags %#x, credit mask %#x; channel has %d VCs, flags %#x",
			ch.Name(nil), numVCs, flags, spent, ch.numVCs, has)
		return
	}
	for vc := range ch.credit[:ch.numVCs] {
		if spent>>vc&1 == 0 {
			ch.credit[vc] = ch.bufFlits
			continue
		}
		cr := int64(ch.credit[vc])
		if c.Varint(&cr); cr == int64(ch.bufFlits) || cr != int64(int16(cr)) {
			c.Fail("%w", wire.ErrCorrupt)
		}
		ch.credit[vc] = int16(cr)
	}
	ch.sentAny = flags&1 != 0
	for _, v := range [...]*uint64{&ch.busyUntilMilli, &ch.stallUntil, &ch.Sent, &ch.Pkts} {
		c.Uvarint(v)
	}
	lost := ch.lostLedger()
	for vc := range lost {
		n := int64(lost[vc])
		c.Varint(&n)
		lost[vc] = int(n)
	}
	var payload []byte
	e := ch.Energy()
	if e != nil {
		for _, v := range [...]*uint64{&e.Flits, &e.Activations, &e.HammingSum, &e.SetBitsSum} {
			c.Uvarint(v)
		}
		payload = ch.side.prevPayload
	}
	if c.Bytes(&payload); e != nil {
		ch.side.prevPayload = payload
	}

	ch.pkts.State(c, 2, func(at uint64, p *packet.Packet) {
		c.Uvarint(&at)
		if p = ref(p, false); c.Decoding() && p != nil {
			ch.pushPkt(at, p)
		}
	})
	ch.credits.State(c, 3, func(at uint64, m creditMsg) {
		c.Uvarint(&at)
		c.Byte(&m.vc)
		c.Byte(&m.flits)
		if m.vc >= ch.numVCs {
			c.Fail("fabric: %s: credit entry for VC %d of %d", ch.Name(nil), m.vc, ch.numVCs)
		} else if c.Decoding() {
			ch.pushCredit(at, m)
		}
	})
}

// LinkState codes a reliable channel's link layer: whether the channel has
// one, then its sender, receiver and window, the header of every frame in
// the packet pipe, in pipe order, and the ack/nack pipe. ref codes a window
// packet as State's does. It follows the channel's State in the machine
// record, so decoding finds the packet pipe refilled and gives each header
// its frame's arrival cycle; acks wake the bound sender as sendCtrl's did.
func (ch *Channel) LinkState(c *wire.Codec, ref func(p *packet.Packet, nilable bool) *packet.Packet) {
	l := ch.linkLayer()
	has := l != nil
	if c.Bool(&has); has != (l != nil) {
		c.Fail("fabric: %s: record and channel disagree on a reliable link", ch.Name(nil))
	}
	if l == nil || c.Err() != nil {
		return
	}
	l.snd.State(c)
	l.rcv.State(c)
	wire.List(c, &l.win, 2)
	for i := range l.win {
		e := &l.win[i]
		e.p = ref(e.p, false)
		if c.Byte(&e.vc); e.vc >= ch.numVCs {
			c.Fail("fabric: %s: window frame on VC %d of %d", ch.Name(nil), e.vc, ch.numVCs)
		}
	}
	if len(l.win) != l.snd.Outstanding() {
		c.Fail("fabric: %s: %d window entries for sequences [%d, %d)", ch.Name(nil), len(l.win), l.snd.Base(), l.snd.Next())
	}
	l.hdrs.State(c, 3, func(_ uint64, h header) {
		c.Uvarint(&h.seq)
		c.Byte(&h.vc)
		c.Bool(&h.corrupt)
		if !c.Decoding() {
			return
		}
		if n := l.hdrs.Len(); n == ch.pkts.Len() || h.vc >= ch.numVCs {
			c.Fail("fabric: %s: header %d on VC %d, for %d frames of %d VCs", ch.Name(nil), n, h.vc, ch.pkts.Len(), ch.numVCs)
		} else {
			l.hdrs.SendAt(ch.pkts.At(n), h)
		}
	})
	if c.Decoding() && l.hdrs.Len() != ch.pkts.Len() {
		c.Fail("fabric: %s: %d headers for %d frames", ch.Name(nil), l.hdrs.Len(), ch.pkts.Len())
	}
	l.ctrl.State(c, 3, func(at uint64, m ctrlMsg) {
		c.Uvarint(&at)
		c.Uvarint(&m.seq)
		if c.Bool(&m.nack); c.Decoding() {
			ch.pushCtrl(at, m)
		}
	})
}
