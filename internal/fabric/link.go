package fabric

import (
	"math"

	"anton2/internal/fault"
	"anton2/internal/packet"
	"anton2/internal/sim"
	"anton2/internal/topo"
)

// This file is a reliable channel's link layer: go-back-N over the channel's
// own pipes, below the interface its components use. A sender calls
// SendableAt and Send, a receiver Recv, exactly as on a lossless channel; the
// sending component adds one LinkTick and one LinkWake per cycle it ticks.
// The channel numbers the frames, draws their corruption, keeps the
// retransmission window, replays it, accepts or drops what arrives and
// returns acks and nacks. The protocol decisions are the pure state machines
// of fault.Sender and fault.Receiver.

// header is the link-layer framing of one transmission: its sequence number,
// wire VC and CRC verdict. It travels beside the packet rather than in it: a
// retransmission may resend a packet whose routing state has already
// advanced downstream, so per-transmission state must live outside the
// packet.
type header struct {
	seq     uint64
	vc      uint8
	corrupt bool
}

// ctrlMsg is one ack or nack on the reverse path, carrying the receiver's
// next expected sequence (cumulative). Control messages ride a lossless
// pipe: real hardware protects them with their own CRC and repeats
// cumulative state, so modeling their loss adds latency but no new protocol
// states.
type ctrlMsg struct {
	seq  uint64
	nack bool
}

type stagedAck struct {
	at uint64
	c  ctrlMsg
}

// frame is one unacknowledged frame in the sender's retransmission
// window: the packet and the wire VC it went out on.
type frame struct {
	p  *packet.Packet
	vc uint8
}

// link is what a reliable channel carries besides its packets. The sending
// component's tick touches snd, win and the ack pipe; the receiving one's rcv
// and the header pipe, which is kept in lockstep with the packet pipe (same
// entries, same arrival cycles). Each pipe stages like the one it shadows;
// stagedHdrs parallels stagedPkts.
type link struct {
	snd     fault.Sender
	rcv     fault.Receiver
	win     []frame     // frames base..next-1, in sequence order
	corrupt func() bool // draws the corruption of the next transmission
	cnt     fault.Counters

	hdrs       sim.Pipe[header]
	ctrl       sim.Pipe[ctrlMsg]
	stagedHdrs []header
	stagedAcks []stagedAck
}

// EnableLink makes the channel reliable: it gains a header pipe beside its
// packet pipe, an ack/nack pipe of the same latency back to the sender and a
// go-back-N sender and receiver. corrupt is called once per transmission and
// says whether the wire corrupts it. The ack timeout covers the worst-case
// ack round trip (serialization, two wire flights, receiver turnaround) plus
// a stall episode.
func (ch *Channel) EnableLink(corrupt func() bool) {
	timeout := 8*ch.pkts.Latency() + 4*fault.StallCycles + 64
	l := &link{
		snd:     fault.NewSender(fault.Window, timeout, fault.RetryLimit),
		corrupt: corrupt,
	}
	l.hdrs.Init(ch.pkts.Latency())
	l.ctrl.Init(ch.pkts.Latency())
	ch.sideRec().link, ch.linked = l, true
}

// LinkCounters returns the protocol events the link layer counted:
// corruption injected and detected, duplicates dropped, retransmissions,
// acks, nacks and timeouts. It is zero on a lossless channel.
func (ch *Channel) LinkCounters() fault.Counters {
	if !ch.linked {
		return fault.Counters{}
	}
	return ch.side.link.cnt
}

// sendFrame transmits p as frame seq on wire VC vc under the corruption the
// link draws for it; the header arrives with the packet. The packet's
// routing state is left alone: a replayed packet may already have been
// accepted downstream and moved on.
func (ch *Channel) sendFrame(now uint64, p *packet.Packet, seq uint64, vc uint8) uint64 {
	l := ch.side.link
	h := header{seq: seq, vc: vc, corrupt: l.corrupt()}
	if h.corrupt {
		l.cnt.CorruptInjected++
	}
	at := ch.transmit(now, p, vc)
	if ch.deferred && ch.eng.Parallel() {
		l.stagedHdrs = append(l.stagedHdrs, h)
	} else {
		l.hdrs.SendAt(at, h)
	}
	return at
}

// accept runs the go-back-N receiver over frame p, just polled from the
// packet pipe, and reports whether it is handed up. A dropped frame (corrupt,
// out of order or a stale duplicate) frees its buffer space at once on its
// wire VC; only the header is read for that, because the packet of a stale
// duplicate may alias one that has long since moved on.
func (ch *Channel) accept(now uint64, p *packet.Packet) bool {
	l := ch.side.link
	h, _ := l.hdrs.Poll(now)
	if h.corrupt {
		l.cnt.CorruptDetected++
	}
	v := l.rcv.OnFrame(h.seq, h.corrupt)
	switch {
	case v.Ack:
		ch.sendCtrl(now, ctrlMsg{seq: v.Seq})
		l.cnt.Acks++
	case v.Nack:
		ch.sendCtrl(now, ctrlMsg{seq: v.Seq, nack: true})
		l.cnt.Nacks++
	}
	if v.Accept {
		return true
	}
	if !h.corrupt && h.seq < l.rcv.Expected() {
		l.cnt.DupsDropped++
	}
	ch.ReturnCredit(now, h.vc, p.Size)
	return false
}

// sendCtrl returns an ack or nack to the sender.
func (ch *Channel) sendCtrl(now uint64, c ctrlMsg) {
	l := ch.side.link
	at := now + l.ctrl.Latency()
	if ch.deferred && ch.eng.Parallel() {
		ch.fileRecv()
		l.stagedAcks = append(l.stagedAcks, stagedAck{at: at, c: c})
		return
	}
	ch.pushCtrl(at, c)
}

// pushCtrl is the only place an ack or nack enters the control pipe:
// enqueue and wake the sender at the arrival cycle. The sender polls the
// pipe on every LinkTick, so no ready bit is involved.
func (ch *Channel) pushCtrl(at uint64, c ctrlMsg) {
	ch.side.link.ctrl.SendAt(at, c)
	ch.wake(ch.sndID, at)
}

// LinkTick runs the sending side of the link for cycle now: it drains the
// acks and nacks that have arrived, releases acknowledged window entries,
// fires the timeout rewind and resends the next frame of a pending replay if
// the serializer and credit allow. The sending component calls it after
// absorbing the cycle's credits, before anything else it does on the
// channel. moved reports whether window entries were released or a frame was
// resent; err is a *fault.BudgetError once the link has exhausted its rewind
// budget, naming the link by names (Name). It does nothing on a lossless
// channel.
//
// A replay bypasses the invariant suite's OnSend hook, which its sender
// calls for fresh sends only: the packet's routing state may legitimately
// have advanced since the original transmission.
func (ch *Channel) LinkTick(now uint64, names *topo.Machine) (moved bool, err error) {
	l := ch.linkLayer()
	if l == nil {
		return false, nil
	}
	for {
		c, ok := l.ctrl.Poll(now)
		if !ok {
			break
		}
		var released int
		if c.nack {
			released = l.snd.OnNack(c.seq, now)
		} else {
			released = l.snd.OnAck(c.seq, now)
		}
		if released > 0 {
			l.win = l.win[:copy(l.win, l.win[released:])]
			moved = true
		}
	}
	if l.snd.Tick(now) {
		l.cnt.Timeouts++
	}
	if l.snd.Dead() {
		err = &fault.BudgetError{Link: ch.Name(names), Attempts: l.snd.Attempts()}
	}
	if seq, ok := l.snd.NeedRetx(); ok {
		e := l.win[seq-l.snd.Base()]
		if ch.sendableAt(e.vc, e.p.Size) <= now {
			ch.sendFrame(now, e.p, seq, e.vc)
			l.snd.OnRetx()
			l.cnt.Retransmits++
			moved = true
		}
	}
	return moved, err
}

// LinkWake returns the next cycle the sending side needs a LinkTick at with
// no ack arriving first (an ack wakes the sender itself): the next cycle
// while a replay is pending, the timeout deadline while frames are
// outstanding, and math.MaxUint64 otherwise or on a lossless channel.
func (ch *Channel) LinkWake(now uint64) uint64 {
	l := ch.linkLayer()
	if l == nil {
		return math.MaxUint64
	}
	if _, ok := l.snd.NeedRetx(); ok {
		return now + 1
	}
	if dl, ok := l.snd.Deadline(); ok {
		return dl
	}
	return math.MaxUint64
}
