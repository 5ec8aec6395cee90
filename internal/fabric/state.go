package fabric

import (
	"fmt"

	"anton2/internal/packet"
)

// This file externalizes a channel's mutable state for checkpointing.
// Everything a Channel accumulates after construction — credit counters,
// serializer occupancy, stall windows, lost-credit ledgers, lifetime
// counters, energy events, and the in-flight contents of both pipes — round
// trips through ChannelState. Wiring (latency, rate, VC count, bindings) is
// rebuilt by constructing the machine fresh and is deliberately absent.
//
// Packets are shared pointers: the same *packet.Packet can sit in a
// retransmission window and in the pipe at once (Resend), so the machine
// snapshot layer owns packet identity. Export maps each pointer to an index
// via the provided callback; Restore resolves indices back through its
// inverse.

// PktEntry is one in-flight packet: its absolute arrival cycle and its index
// in the snapshot's packet registry.
type PktEntry struct {
	At  uint64 `json:"at"`
	Pkt int    `json:"pkt"`
}

// CreditEntry is one in-flight credit return.
type CreditEntry struct {
	At    uint64 `json:"at"`
	VC    uint8  `json:"vc"`
	Flits uint8  `json:"flits"`
}

// ChannelState is the serializable mutable state of one channel.
type ChannelState struct {
	Credit         []int           `json:"credit"`
	BusyUntilMilli uint64          `json:"busy,omitempty"`
	StallUntil     uint64          `json:"stall,omitempty"`
	Lost           []int           `json:"lost,omitempty"`
	SentAny        bool            `json:"sent_any,omitempty"`
	Sent           uint64          `json:"sent,omitempty"`
	Pkts           uint64          `json:"pkts,omitempty"`
	Energy         *EnergyCounters `json:"energy,omitempty"`
	PrevPayload    []byte          `json:"prev_payload,omitempty"`
	InFlight       []PktEntry      `json:"in_flight,omitempty"`
	Credits        []CreditEntry   `json:"credits,omitempty"`
}

// ExportState captures the channel's mutable state. pktIndex interns a
// packet pointer into the snapshot registry and returns its index. Channels
// are snapshotted between engine steps only; staged (deferred) traffic must
// already be flushed, which the phase-barrier merge guarantees.
func (ch *Channel) ExportState(pktIndex func(*packet.Packet) int) (ChannelState, error) {
	if len(ch.stagedPkts) != 0 || len(ch.stagedCreds) != 0 {
		return ChannelState{}, fmt.Errorf("fabric: %s: snapshot with staged traffic", ch.Name)
	}
	st := ChannelState{
		Credit:         make([]int, ch.numVCs),
		BusyUntilMilli: ch.busyUntilMilli,
		StallUntil:     ch.stallUntil,
		SentAny:        ch.sentAny,
		Sent:           ch.Sent,
		Pkts:           ch.Pkts,
	}
	for vc := range st.Credit {
		st.Credit[vc] = int(ch.credit[vc])
	}
	if ch.lost != nil {
		st.Lost = append([]int(nil), ch.lost...)
	}
	if ch.Energy != nil {
		e := *ch.Energy
		st.Energy = &e
	}
	if len(ch.prevPayload) > 0 {
		st.PrevPayload = append([]byte(nil), ch.prevPayload...)
	}
	ch.pkts.Entries(func(at uint64, p *packet.Packet) {
		st.InFlight = append(st.InFlight, PktEntry{At: at, Pkt: pktIndex(p)})
	})
	ch.credits.Entries(func(at uint64, c creditMsg) {
		st.Credits = append(st.Credits, CreditEntry{At: at, VC: c.vc, Flits: c.flits})
	})
	return st, nil
}

// RestoreState loads exported state into a freshly built channel (empty
// pipes) and re-issues what the in-flight traffic implies: each packet sets
// the bound receiver's ready bit and wakes it at its arrival cycle, each
// credit likewise for the bound sender — the same pushPkt/pushCredit the
// original Send/ReturnCredit went through.
func (ch *Channel) RestoreState(st ChannelState, pkt func(int) (*packet.Packet, error)) error {
	if len(st.Credit) != int(ch.numVCs) {
		return fmt.Errorf("fabric: %s: restore with %d VCs, channel has %d", ch.Name, len(st.Credit), ch.numVCs)
	}
	if !ch.pkts.Empty() || !ch.credits.Empty() {
		return fmt.Errorf("fabric: %s: restore into a non-empty channel", ch.Name)
	}
	for vc, n := range st.Credit {
		ch.credit[vc] = int32(n)
	}
	ch.busyUntilMilli = st.BusyUntilMilli
	ch.stallUntil = st.StallUntil
	if st.Lost != nil {
		if ch.lost == nil || len(st.Lost) != len(ch.lost) {
			return fmt.Errorf("fabric: %s: lost-credit ledger shape mismatch", ch.Name)
		}
		copy(ch.lost, st.Lost)
	}
	ch.sentAny = st.SentAny
	ch.Sent = st.Sent
	ch.Pkts = st.Pkts
	if st.Energy != nil {
		if ch.Energy == nil {
			return fmt.Errorf("fabric: %s: energy state for a channel without tracking", ch.Name)
		}
		*ch.Energy = *st.Energy
	}
	ch.prevPayload = append(ch.prevPayload[:0], st.PrevPayload...)
	for _, e := range st.InFlight {
		p, err := pkt(e.Pkt)
		if err != nil {
			return fmt.Errorf("fabric: %s: %w", ch.Name, err)
		}
		ch.pushPkt(e.At, p)
	}
	for _, e := range st.Credits {
		if e.VC >= ch.numVCs {
			return fmt.Errorf("fabric: %s: credit entry for VC %d of %d", ch.Name, e.VC, ch.numVCs)
		}
		ch.pushCredit(e.At, creditMsg{vc: e.VC, flits: e.Flits})
	}
	return nil
}
