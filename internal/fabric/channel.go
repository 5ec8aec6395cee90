// Package fabric models the physical channels of the network: on-chip mesh
// channels that move one 24-byte flit per cycle, and serialized torus
// channels whose effective rate (89.6 Gb/s of the 288 Gb/s mesh rate) is
// captured by a fractional cycles-per-flit occupancy. Flow control is
// credit-based virtual cut-through: a sender forwards a packet only when the
// downstream VC buffer has space for all of its flits.
package fabric

import (
	"fmt"

	"anton2/internal/packet"
	"anton2/internal/sim"
	"anton2/internal/topo"
)

// RateMilli expresses channel bandwidth in millicycles per flit.
const (
	// MeshRateMilli: mesh channels carry one flit per cycle.
	MeshRateMilli = 1000
	// TorusRateMilli: the serialized torus channel (topo.TorusRateMilli).
	TorusRateMilli = topo.TorusRateMilli
)

type creditMsg struct {
	vc    uint8
	flits uint8
}

// EnergyCounters accumulates the per-channel event counts that feed the
// router energy model of Section 4.5.
type EnergyCounters struct {
	Flits       uint64 // valid flits transferred
	Activations uint64 // idle->valid transitions
	HammingSum  uint64 // bit flips between successive valid flits
	SetBitsSum  uint64 // one bits per flit payload
}

// MaxVCs bounds a channel's physical VC count: the per-VC credit counters
// live in a fixed inline array. The widest registered routing strategy
// (baseline-2n on the torus group) uses 12.
const MaxVCs = 12

// Channel is a directed link between two network components with per-VC
// credit flow control. The sending component owns the credit counters and
// the occupancy tracking; the receiving component polls arrivals and returns
// credits as buffer space frees.
//
// Ready masks: each bound component owns an inMask and a credMask word, one
// bit per port. The channel sets its bit in the receiver's inMask whenever a
// packet enters the packet pipe, and in the sender's credMask whenever a
// credit enters the credit pipe (pushPkt and pushCredit are the only
// enqueuers); Recv and AbsorbCredits, which only the owning component calls,
// clear the bit once they observe the pipe empty. The component's tick visits
// set bits only, so an idle port costs no memory touch at all.
//
// Layout: both pipes and the credit counters are held inline and the fields
// are grouped by who touches them on the hot path — the receiver's poll
// (pkts, its mask), the sender's CanSend/Send (credit, serializer state,
// counters), the credit return path (credits, its mask) — with
// configuration-time, fault-only and staging state last.
type Channel struct {
	pkts     sim.Pipe[*packet.Packet]
	recvMask *uint32 // receiver's inMask word and this channel's bit in it
	recvBit  uint32
	recvID   int32

	credit         [MaxVCs]int32 // sender-side available credits per VC, in flits
	busyUntilMilli uint64        // serializer occupancy, in millicycles
	// stallUntil: the channel accepts no new frames while now < stallUntil.
	// Zero (never stalled) is the common case; the fault layer sets it for
	// transient stalls and permanent outages.
	stallUntil uint64

	latency uint64
	rate    uint64 // millicycles per flit
	// Sent counts total flits forwarded (always maintained; used for
	// utilization reporting). Pkts is the packet analogue.
	Sent uint64
	Pkts uint64
	// Active-set bindings: the engines and component ids of the two
	// endpoints. When bound, a send wakes the receiver at the arrival cycle
	// and a credit return wakes the sender at the credit's arrival cycle, so
	// sleeping components never miss traffic and — because credits are
	// absorbed on the same cycle as in scan mode — per-cycle credit
	// counters stay bit-identical across scheduling modes.
	recvE, sndE *sim.Engine
	// DropCredit, when non-nil, is consulted on every credit return; a true
	// result drops the message, accumulating into lost. Installed only by
	// the fault layer (EnableCreditLoss).
	DropCredit func(vc, flits uint8) bool
	// Energy is non-nil when energy tracking is enabled.
	Energy *EnergyCounters

	credits sim.Pipe[creditMsg]
	sndMask *uint32 // sender's credMask word and this channel's bit in it
	sndBit  uint32
	sndID   int32

	bufFlits int32 // per-VC buffer capacity, in flits (credit upper bound)
	numVCs   uint8
	// deferred: the channel crosses a shard boundary (SetDeferred). The flag
	// sits with the fields every send touches; what it gates is kept last.
	deferred bool
	sentAny  bool
	// CensusExempt marks a channel whose in-flight packets are accounted
	// for by a reliable-link retransmission window instead of the pipe
	// census (the pipe may hold duplicates of one logical packet).
	CensusExempt bool
	Group        topo.Group

	ID          int // global channel id (topo.Machine space), -1 if synthetic
	Name        string
	lost        []int // credits dropped and not yet restored, per VC
	prevPayload []byte
	// A deferred channel stages its sends and credit returns here during
	// the parallel phase of a sharded cycle and files itself on the staging
	// shard's list (sndStage for the sending end, recvStage for the
	// receiving one), which the coordinator flushes — with the original
	// arrival cycles — at the phase barrier.
	sndStage, recvStage *StageList
	stagedPkts          []stagedPkt
	stagedCreds         []stagedCred
	// unbound is the mask word an unbound side points at (with a zero bit),
	// so the enqueue and drain paths need no nil checks.
	unbound uint32
}

type stagedPkt struct {
	at uint64
	p  *packet.Packet
}

type stagedCred struct {
	at  uint64
	msg creditMsg
}

// Config sizes a channel.
type Config struct {
	ID            int
	Name          string
	Group         topo.Group
	Latency       uint64 // delivery latency in cycles (>= 1)
	RateMilli     uint64 // millicycles per flit
	NumVCs        int
	BufFlits      int // downstream buffer capacity per VC, in flits
	CreditLatency uint64
	TrackEnergy   bool
}

// New builds a channel with full initial credit for every VC.
func New(c Config) *Channel {
	if c.NumVCs < 1 || c.NumVCs > MaxVCs {
		panic(fmt.Sprintf("fabric: channel needs 1..%d VCs, got %d", MaxVCs, c.NumVCs))
	}
	if c.BufFlits < packet.MaxFlits {
		panic(fmt.Sprintf("fabric: per-VC buffer %d cannot hold a max-size packet", c.BufFlits))
	}
	if c.RateMilli == 0 {
		c.RateMilli = MeshRateMilli
	}
	if c.Latency == 0 {
		c.Latency = 1
	}
	ch := &Channel{
		ID:       c.ID,
		Name:     c.Name,
		Group:    c.Group,
		latency:  c.Latency,
		rate:     c.RateMilli,
		pkts:     sim.MakePipe[*packet.Packet](c.Latency),
		credits:  sim.MakePipe[creditMsg](c.CreditLatency),
		numVCs:   uint8(c.NumVCs),
		bufFlits: int32(c.BufFlits),
	}
	ch.recvMask, ch.sndMask = &ch.unbound, &ch.unbound
	for i := 0; i < c.NumVCs; i++ {
		ch.credit[i] = ch.bufFlits
	}
	if c.TrackEnergy {
		ch.Energy = &EnergyCounters{}
	}
	return ch
}

// BindReceiver registers the receiving component: every packet entering the
// pipe sets bit of the component's inMask word and wakes it at the packet's
// arrival cycle.
func (ch *Channel) BindReceiver(e *sim.Engine, id int, inMask *uint32, bit uint) {
	ch.recvE, ch.recvID = e, int32(id)
	ch.recvMask, ch.recvBit = inMask, 1<<bit
}

// BindSender registers the sending component: every credit entering the pipe
// sets bit of the component's credMask word and wakes it at the credit's
// arrival cycle.
func (ch *Channel) BindSender(e *sim.Engine, id int, credMask *uint32, bit uint) {
	ch.sndE, ch.sndID = e, int32(id)
	ch.sndMask, ch.sndBit = credMask, 1<<bit
}

// pushPkt is the only place a packet enters the pipe: enqueue, mark the
// receiver's port ready, wake the receiver at the arrival cycle.
func (ch *Channel) pushPkt(at uint64, p *packet.Packet) {
	ch.pkts.SendAt(at, p)
	*ch.recvMask |= ch.recvBit
	if ch.recvE != nil {
		ch.recvE.Wake(int(ch.recvID), at)
	}
}

// pushCredit is the only place a credit enters the pipe: enqueue, mark the
// sender's port ready, wake the sender at the arrival cycle.
func (ch *Channel) pushCredit(at uint64, msg creditMsg) {
	ch.credits.SendAt(at, msg)
	*ch.sndMask |= ch.sndBit
	if ch.sndE != nil {
		ch.sndE.Wake(int(ch.sndID), at)
	}
}

// WakeSender wakes the bound sending component at the given cycle. The fault
// layer uses it when a credit-resync audit restores sender-side credits
// outside the normal credit pipe.
func (ch *Channel) WakeSender(at uint64) {
	if ch.sndE != nil {
		ch.sndE.Wake(int(ch.sndID), at)
	}
}

// StageList is one shard's list of the shard-crossing channels it staged
// traffic on during the current parallel phase. Only that shard's worker
// appends to it, and only the coordinator, at the barrier, flushes it, so the
// barrier costs what was staged rather than a walk over every channel.
type StageList struct{ chans []*Channel }

// Flush applies everything the listed channels staged and empties the list.
// Coordinator-only, at the phase barrier.
func (l *StageList) Flush() {
	for i, ch := range l.chans {
		ch.flushStaged()
		l.chans[i] = nil
	}
	l.chans = l.chans[:0]
}

// SetDeferred marks the channel as crossing a shard boundary and names the
// lists of the sender's and the receiver's shard. While shard workers run
// (sim.Engine.Parallel) sends and credit returns are staged and applied by
// StageList.Flush at the phase barrier with their original arrival cycles; in
// a serially stepped cycle the coordinator ticks both ends itself, in id
// order, so they enter the pipes directly, as on an unsharded machine.
func (ch *Channel) SetDeferred(snd, recv *StageList) {
	ch.deferred, ch.sndStage, ch.recvStage = true, snd, recv
}

// flushStaged moves staged sends and credit returns into the pipes (setting
// ready bits and issuing wakes as a direct send would). A channel both of
// whose ends staged is on two lists; its second flush finds nothing.
func (ch *Channel) flushStaged() {
	for i := range ch.stagedPkts {
		s := &ch.stagedPkts[i]
		ch.pushPkt(s.at, s.p)
		s.p = nil
	}
	ch.stagedPkts = ch.stagedPkts[:0]
	for _, s := range ch.stagedCreds {
		ch.pushCredit(s.at, s.msg)
	}
	ch.stagedCreds = ch.stagedCreds[:0]
}

// NumVCs returns the channel's physical VC count.
func (ch *Channel) NumVCs() int { return int(ch.numVCs) }

// Latency returns the delivery latency in cycles.
func (ch *Channel) Latency() uint64 { return ch.latency }

// AbsorbCredits drains returned credits into the sender-side counters, and
// clears the sender's ready bit once the credit pipe is empty. The sending
// component calls this at the top of its Tick for ports whose bit is set.
func (ch *Channel) AbsorbCredits(now uint64) {
	for {
		c, ok := ch.credits.Poll(now)
		if !ok {
			break
		}
		ch.credit[c.vc] += int32(c.flits)
	}
	if ch.credits.Empty() {
		*ch.sndMask &^= ch.sndBit
	}
}

// Credits returns the sender-side available credit for a VC, in flits.
func (ch *Channel) Credits(vc uint8) int { return int(ch.credit[vc]) }

// CanSend reports whether a packet of the given size can be forwarded on vc
// right now: the serializer must free up within this cycle (a small
// serialization FIFO lets the handoff overlap the previous flit's tail, so
// fractional rates like the torus 45/14 cycles per flit are sustained
// exactly) and the downstream VC must have credit for every flit (virtual
// cut-through).
func (ch *Channel) CanSend(now uint64, vc uint8, flits uint8) bool {
	return ch.credit[vc] >= int32(flits) && ch.busyUntilMilli < (now+1)*1000 && ch.stallUntil <= now
}

// Send forwards a packet on vc and returns the arrival cycle. The packet
// arrives downstream when its last flit clears the serializer plus the
// channel latency. The caller must have checked CanSend.
func (ch *Channel) Send(now uint64, p *packet.Packet, vc uint8) uint64 {
	p.CurVC = vc
	return ch.transmit(now, p, vc)
}

// Resend retransmits a packet on vc without touching the packet's mutable
// routing state: the original copy may already have been accepted downstream
// and moved on, so a retransmission must treat the packet as read-only. Only
// the reliable-link layer calls this.
func (ch *Channel) Resend(now uint64, p *packet.Packet, vc uint8) uint64 {
	return ch.transmit(now, p, vc)
}

func (ch *Channel) transmit(now uint64, p *packet.Packet, vc uint8) uint64 {
	if !ch.CanSend(now, vc, p.Size) {
		panic("fabric: Send without CanSend on " + ch.Name)
	}
	ch.credit[vc] -= int32(p.Size)
	ch.Sent += uint64(p.Size)
	ch.Pkts++

	if ch.Energy != nil {
		ch.countEnergy(now, p)
	}
	ch.sentAny = true

	start := now * 1000
	if ch.busyUntilMilli > start {
		start = ch.busyUntilMilli
	}
	ch.busyUntilMilli = start + uint64(p.Size)*ch.rate
	// Arrival cycle: when the last flit has been serialized, plus wire
	// latency. Integer-rounded up; always at least now+1.
	arrive := (ch.busyUntilMilli+999)/1000 + ch.latency - 1
	if arrive <= now {
		arrive = now + 1
	}
	if ch.deferred && ch.sndE.Parallel() {
		if len(ch.stagedPkts) == 0 {
			ch.sndStage.chans = append(ch.sndStage.chans, ch)
		}
		ch.stagedPkts = append(ch.stagedPkts, stagedPkt{at: arrive, p: p})
		return arrive
	}
	ch.pushPkt(arrive, p)
	return arrive
}

func (ch *Channel) countEnergy(now uint64, p *packet.Packet) {
	e := ch.Energy
	e.Flits += uint64(p.Size)
	// An activation is an idle-to-valid transition: the previous flit
	// finished strictly before this cycle began (back-to-back flits do
	// not activate), or this is the first flit ever.
	if !ch.sentAny || ch.busyUntilMilli < now*1000 {
		e.Activations++
	}
	if p.Payload != nil {
		e.HammingSum += uint64(packet.HammingDistance(ch.prevPayload, p.Payload))
		e.SetBitsSum += uint64(packet.SetBits(p.Payload)) * uint64(p.Size)
		ch.prevPayload = append(ch.prevPayload[:0], p.Payload...)
	}
}

// Recv polls for an arrived packet, and clears the receiver's ready bit once
// the packet pipe is empty. The receiving component calls this in its Tick
// for ports whose bit is set; credits guarantee it has buffer space for
// anything that arrives.
func (ch *Channel) Recv(now uint64) (*packet.Packet, bool) {
	p, ok := ch.pkts.Poll(now)
	if ch.pkts.Empty() {
		*ch.recvMask &^= ch.recvBit
	}
	return p, ok
}

// ReturnCredit informs the sender that flits of buffer space freed on vc.
func (ch *Channel) ReturnCredit(now uint64, vc uint8, flits uint8) {
	if ch.DropCredit != nil && ch.DropCredit(vc, flits) {
		ch.lost[vc] += int(flits)
		return
	}
	at, msg := now+ch.credits.Latency(), creditMsg{vc: vc, flits: flits}
	if ch.deferred && ch.recvE.Parallel() {
		if len(ch.stagedCreds) == 0 {
			ch.recvStage.chans = append(ch.recvStage.chans, ch)
		}
		ch.stagedCreds = append(ch.stagedCreds, stagedCred{at: at, msg: msg})
		return
	}
	ch.pushCredit(at, msg)
}

// EnableCreditLoss installs a credit-drop predicate and allocates the
// lost-credit ledger the resync audit restores from.
func (ch *Channel) EnableCreditLoss(drop func(vc, flits uint8) bool) {
	ch.lost = make([]int, ch.numVCs)
	ch.DropCredit = drop
}

// LostCredits returns the total credits currently dropped and unrestored.
func (ch *Channel) LostCredits() int {
	total := 0
	for _, n := range ch.lost {
		total += n
	}
	return total
}

// RestoreLostCredits models a credit resync audit: every lost credit is
// re-added to the sender-side counters. Returns the number restored.
func (ch *Channel) RestoreLostCredits() int {
	total := 0
	for vc, n := range ch.lost {
		if n > 0 {
			ch.credit[vc] += int32(n)
			total += n
			ch.lost[vc] = 0
		}
	}
	return total
}

// SetStall blocks new sends on the channel until the given cycle. The fault
// layer uses it for transient stalls (finite until) and permanent outages
// (math.MaxUint64).
func (ch *Channel) SetStall(until uint64) { ch.stallUntil = until }

// Stalled reports whether the channel is refusing new frames at cycle now.
func (ch *Channel) Stalled(now uint64) bool { return ch.stallUntil > now }

// Quiet reports whether the channel holds no in-flight packets or credits.
func (ch *Channel) Quiet() bool { return ch.pkts.Empty() && ch.credits.Empty() }

// BufFlits returns the downstream per-VC buffer capacity in flits. It is the
// upper bound a sender-side credit counter may ever reach.
func (ch *Channel) BufFlits() int { return int(ch.bufFlits) }

// InFlight returns the number of packets currently traversing the channel
// (sent but not yet received). Invariant checkers use it for the flit
// conservation census.
func (ch *Channel) InFlight() int { return ch.pkts.Len() }

// CreditsInFlight returns the number of credit returns currently traversing
// the channel's reverse path (returned but not yet absorbed).
func (ch *Channel) CreditsInFlight() int { return ch.credits.Len() }

// CorruptCreditsForTest deliberately skews the sender-side credit counter for
// vc by delta flits. It exists solely so negative tests can prove the
// invariant-checking layer catches credit-accounting bugs; production code
// must never call it.
func (ch *Channel) CorruptCreditsForTest(vc uint8, delta int) {
	ch.credit[vc] += int32(delta)
}

// FlitsSent returns the total flits forwarded over the channel's lifetime.
func (ch *Channel) FlitsSent() uint64 { return ch.Sent }

// RateMilli returns the serialization rate in millicycles per flit.
func (ch *Channel) RateMilli() uint64 { return ch.rate }
