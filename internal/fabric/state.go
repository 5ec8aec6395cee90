package fabric

import (
	"fmt"
	"math/bits"

	"anton2/internal/packet"
	"anton2/internal/wire"
)

// This file is the channels' half of the checkpoint codec. Everything a
// Channel accumulates after construction is appended to and read back from
// the machine snapshot, as: VC count; flags (below); a mask of the VCs whose
// credit counter is not at the buffer capacity, and those counters;
// busyUntilMilli, stallUntil, Sent, Pkts; the lost-credit ledger and the
// energy counters when flagged; the previous payload; the packet pipe as
// (arrival cycle, packet index) pairs behind a count; the credit pipe as
// (arrival cycle, VC, flits) triples behind a count. An idle channel is a
// dozen bytes. Wiring (latency, rate, bindings) is rebuilt by constructing
// the machine fresh and is deliberately absent.
//
// Packets are shared pointers: the same *packet.Packet can sit in a
// retransmission window and in the pipe at once (Resend), so the machine
// snapshot layer owns packet identity and the record holds indices into its
// packet table.

// Record flags: the channel has sent, keeps a lost-credit ledger, tracks
// energy.
const (
	stSentAny = 1 << iota
	stLost
	stEnergy
)

// AppendState appends the channel's mutable state. pktIndex interns a packet
// pointer into the snapshot's packet table and returns its index. Channels
// are snapshotted between engine steps only; staged (deferred) traffic must
// already be flushed, which the phase-barrier merge guarantees.
func (ch *Channel) AppendState(b []byte, pktIndex func(*packet.Packet) uint64) ([]byte, error) {
	if len(ch.stagedPkts) != 0 || len(ch.stagedCreds) != 0 {
		return b, fmt.Errorf("fabric: %s: snapshot with staged traffic", ch.Name)
	}
	var flags uint8 // stSentAny, stLost, stEnergy, in that order
	for i, set := range [...]bool{ch.sentAny, ch.lost != nil, ch.Energy != nil} {
		if set {
			flags |= 1 << i
		}
	}
	var spent uint64
	for vc, c := range ch.credit[:ch.numVCs] {
		if c != ch.bufFlits {
			spent |= 1 << vc
		}
	}
	b = append(b, ch.numVCs, flags)
	b = wire.AppendUvarint(b, spent)
	for m := spent; m != 0; m &= m - 1 {
		b = wire.AppendVarint(b, int64(ch.credit[bits.TrailingZeros64(m)]))
	}
	for _, v := range [...]uint64{ch.busyUntilMilli, ch.stallUntil, ch.Sent, ch.Pkts} {
		b = wire.AppendUvarint(b, v)
	}
	for _, n := range ch.lost {
		b = wire.AppendVarint(b, int64(n))
	}
	if e := ch.Energy; e != nil {
		for _, v := range [...]uint64{e.Flits, e.Activations, e.HammingSum, e.SetBitsSum} {
			b = wire.AppendUvarint(b, v)
		}
	}
	b = wire.AppendBytes(b, ch.prevPayload)
	b = wire.AppendUvarint(b, uint64(ch.pkts.Len()))
	ch.pkts.Entries(func(at uint64, p *packet.Packet) {
		b = wire.AppendUvarint(wire.AppendUvarint(b, at), pktIndex(p))
	})
	b = wire.AppendUvarint(b, uint64(ch.credits.Len()))
	ch.credits.Entries(func(at uint64, c creditMsg) {
		b = append(wire.AppendUvarint(b, at), c.vc, c.flits)
	})
	return b, nil
}

// ReadState loads a record AppendState wrote into a freshly built channel
// (empty pipes) and re-issues what the in-flight traffic implies: each packet
// sets the bound receiver's ready bit and wakes it at its arrival cycle, each
// credit likewise for the bound sender — the same pushPkt/pushCredit the
// original Send/ReturnCredit went through. pkt resolves a packet-table index,
// failing the reader itself for one outside the table.
func (ch *Channel) ReadState(r *wire.Reader, pkt func(uint64) *packet.Packet) {
	if !ch.pkts.Empty() || !ch.credits.Empty() {
		r.Fail("fabric: %s: restore into a non-empty channel", ch.Name)
		return
	}
	numVCs, flags, spent := r.Byte(), r.Byte(), r.Uvarint()
	switch hasLost, hasEnergy := flags&stLost != 0, flags&stEnergy != 0; {
	case r.Err() != nil:
	case numVCs != ch.numVCs:
		r.Fail("fabric: %s: restore with %d VCs, channel has %d", ch.Name, numVCs, ch.numVCs)
	case hasLost != (ch.lost != nil):
		r.Fail("fabric: %s: lost-credit ledger shape mismatch", ch.Name)
	case hasEnergy != (ch.Energy != nil):
		r.Fail("fabric: %s: snapshot and channel disagree on energy tracking", ch.Name)
	case flags >= stEnergy<<1 || spent>>numVCs != 0:
		r.Fail("%w", wire.ErrCorrupt)
	}
	if r.Err() != nil {
		return
	}
	for vc := range ch.credit[:ch.numVCs] {
		ch.credit[vc] = ch.bufFlits
		if spent>>vc&1 != 0 {
			c := r.Varint()
			if c == int64(ch.bufFlits) || c != int64(int32(c)) {
				r.Fail("%w", wire.ErrCorrupt)
			}
			ch.credit[vc] = int32(c)
		}
	}
	ch.sentAny = flags&stSentAny != 0
	ch.busyUntilMilli, ch.stallUntil, ch.Sent, ch.Pkts = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	for vc := range ch.lost {
		ch.lost[vc] = int(r.Varint())
	}
	if e := ch.Energy; e != nil {
		e.Flits, e.Activations, e.HammingSum, e.SetBitsSum = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	}
	ch.prevPayload = append(ch.prevPayload[:0], r.Bytes()...)
	for n := r.Count(2); n > 0; n-- {
		at := r.Uvarint()
		if p := pkt(r.Uvarint()); p != nil {
			ch.pushPkt(at, p)
		}
	}
	for n := r.Count(3); n > 0; n-- {
		at, vc, flits := r.Uvarint(), r.Byte(), r.Byte()
		if vc >= ch.numVCs {
			r.Fail("fabric: %s: credit entry for VC %d of %d", ch.Name, vc, ch.numVCs)
			return
		}
		ch.pushCredit(at, creditMsg{vc: vc, flits: flits})
	}
}
