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
// retransmission window and in the pipe at once (Resend), so the machine
// snapshot layer owns packet identity and the record holds indices into its
// packet table.

// State codes the channel's mutable state; ref codes a packet reference
// (never nil here) as an index into the snapshot's packet table and returns
// the packet it names. Channels are snapshotted between engine steps only,
// so staged (deferred) traffic must already be flushed, which the
// phase-barrier merge guarantees. Decoding fills a freshly built channel
// (empty pipes) and re-issues what the in-flight traffic implies: each
// packet sets the bound receiver's ready bit and wakes it at its arrival
// cycle, each credit likewise for the bound sender — the same
// pushPkt/pushCredit the original Send/ReturnCredit went through.
func (ch *Channel) State(c *wire.Codec, ref func(p *packet.Packet, nilable bool) *packet.Packet) {
	if len(ch.stagedPkts) != 0 || len(ch.stagedCreds) != 0 {
		c.Fail("fabric: %s: snapshot with staged traffic", ch.Name)
		return
	}
	var flags uint8 // bit 0: the channel has sent; 1: keeps a lost-credit ledger; 2: tracks energy
	for i, set := range [...]bool{ch.sentAny, ch.lost != nil, ch.Energy != nil} {
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
			ch.Name, numVCs, flags, spent, ch.numVCs, has)
		return
	}
	for vc := range ch.credit[:ch.numVCs] {
		if spent>>vc&1 == 0 {
			ch.credit[vc] = ch.bufFlits
			continue
		}
		cr := int64(ch.credit[vc])
		if c.Varint(&cr); cr == int64(ch.bufFlits) || cr != int64(int32(cr)) {
			c.Fail("%w", wire.ErrCorrupt)
		}
		ch.credit[vc] = int32(cr)
	}
	ch.sentAny = flags&1 != 0
	for _, v := range [...]*uint64{&ch.busyUntilMilli, &ch.stallUntil, &ch.Sent, &ch.Pkts} {
		c.Uvarint(v)
	}
	for vc := range ch.lost {
		n := int64(ch.lost[vc])
		c.Varint(&n)
		ch.lost[vc] = int(n)
	}
	if e := ch.Energy; e != nil {
		for _, v := range [...]*uint64{&e.Flits, &e.Activations, &e.HammingSum, &e.SetBitsSum} {
			c.Uvarint(v)
		}
	}
	c.Bytes(&ch.prevPayload)

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
			c.Fail("fabric: %s: credit entry for VC %d of %d", ch.Name, m.vc, ch.numVCs)
		} else if c.Decoding() {
			ch.pushCredit(at, m)
		}
	})
}
