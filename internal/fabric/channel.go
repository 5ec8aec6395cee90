// Package fabric models the physical channels of the network: on-chip mesh
// channels that move one 24-byte flit per cycle, and serialized torus
// channels whose effective rate (89.6 Gb/s of the 288 Gb/s mesh rate) is
// captured by a fractional cycles-per-flit occupancy. Flow control is
// credit-based virtual cut-through: a sender forwards a packet only when the
// downstream VC buffer has space for all of its flits.
package fabric

import (
	"fmt"
	"math"

	"anton2/internal/packet"
	"anton2/internal/sim"
	"anton2/internal/topo"
)

// MeshRateMilli is the mesh channels' bandwidth in millicycles per flit: one
// flit per cycle. The serialized torus channel's is topo.TorusRateMilli.
const MeshRateMilli = 1000

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
// (pkts, its mask), the sender's SendableAt/Send (credit, serializer state,
// counters), the credit return path (credits, its mask). What only some
// channels use — the link layer of a reliable channel, shard-crossing
// staging, the lost-credit ledger, energy counters — lives in a side record
// the channel gets when it first needs one, behind a flag the hot path tests.
// A machine keeps its channels in one slab and builds each in place (Init);
// a channel holds no name: Name renders one from its id and the caller's
// topo.Machine. A channel is 200 bytes.
type Channel struct {
	pkts     sim.Pipe[*packet.Packet]
	recvMask *uint32 // receiver's inMask word; recvBit is this channel's bit in it
	recvID   int32
	ID       int32 // global channel id (topo.Machine space)

	credit         [MaxVCs]int16 // sender-side available credits per VC, in flits
	busyUntilMilli uint64        // serializer occupancy, in millicycles
	// stallUntil: the channel accepts no new frames while now < stallUntil.
	// Zero (never stalled) is the common case; the fault layer sets it for
	// transient stalls and permanent outages.
	stallUntil uint64
	// Sent counts total flits forwarded (always maintained; used for
	// utilization reporting). Pkts is the packet analogue.
	Sent uint64
	Pkts uint64
	// Active-set binding: the engine of the two endpoints, whose component
	// ids are recvID and sndID (-1 for a side bound without one). When
	// bound, a send wakes the receiver at the arrival cycle and a credit
	// return wakes the sender at the credit's arrival cycle, so sleeping
	// components never miss traffic and — because credits are absorbed on
	// the same cycle as in scan mode — per-cycle credit counters stay
	// bit-identical across scheduling modes.
	eng      *sim.Engine
	rate     uint32 // millicycles per flit
	bufFlits int16  // per-VC buffer capacity, in flits (credit upper bound)
	numVCs   uint8
	recvBit  uint8

	credits sim.Pipe[creditMsg]
	sndMask *uint32 // sender's credMask word; sndBit is this channel's bit in it
	side    *side
	sndID   int32
	// unbound is the mask word an unbound side points at, so the enqueue
	// and drain paths need no nil checks; nothing reads it.
	unbound uint32
	sndBit  uint8
	Group   topo.Group
	// Flags the hot path tests before it reaches into side: linked, the
	// channel is reliable (EnableLink); deferred, it crosses a shard
	// boundary (SetDeferred); lossy, it may drop credits
	// (EnableCreditLoss); metered, it counts energy.
	linked, deferred, lossy, metered bool
	sentAny                          bool
}

// side is the part of a channel only some channels use.
type side struct {
	// link is the link layer of a reliable channel (EnableLink).
	link *link

	// A deferred channel stages its sends and credit returns — and, when
	// reliable, its frame headers and acks — here during the parallel phase
	// of a sharded cycle and files itself on the staging shard's list
	// (sndStage for the sending end, recvStage for the receiving one), which
	// the coordinator flushes — with the original arrival cycles — at the
	// phase barrier.
	sndStage, recvStage *StageList
	stagedPkts          []stagedPkt
	stagedCreds         []stagedCred

	// dropCredit is consulted on every credit return of a lossy channel; a
	// true result drops the message, accumulating into lost (per VC, the
	// credits dropped and not yet restored).
	dropCredit func(vc, flits uint8) bool
	lost       []int

	energy      EnergyCounters
	prevPayload []byte
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
	Group         topo.Group
	Latency       uint64 // delivery latency in cycles (>= 1)
	RateMilli     uint64 // millicycles per flit
	NumVCs        int
	BufFlits      int // downstream buffer capacity per VC, in flits
	CreditLatency uint64
	TrackEnergy   bool
}

// Init builds the channel in place, which must be zero, with full initial
// credit for every VC. It is the one way to make a channel: a machine calls
// it on each element of its channel slab.
func (ch *Channel) Init(c Config) {
	if c.NumVCs < 1 || c.NumVCs > MaxVCs {
		panic(fmt.Sprintf("fabric: channel needs 1..%d VCs, got %d", MaxVCs, c.NumVCs))
	}
	if c.BufFlits < packet.MaxFlits || c.BufFlits > math.MaxInt16 {
		panic(fmt.Sprintf("fabric: per-VC buffer %d cannot hold a max-size packet or overflows a credit counter", c.BufFlits))
	}
	if c.RateMilli == 0 {
		c.RateMilli = MeshRateMilli
	}
	ch.ID, ch.Group = int32(c.ID), c.Group
	ch.rate = uint32(c.RateMilli)
	ch.pkts.Init(c.Latency)
	ch.credits.Init(c.CreditLatency)
	ch.numVCs, ch.bufFlits = uint8(c.NumVCs), int16(c.BufFlits)
	ch.recvMask, ch.sndMask = &ch.unbound, &ch.unbound
	ch.recvID, ch.sndID = -1, -1
	for i := 0; i < c.NumVCs; i++ {
		ch.credit[i] = ch.bufFlits
	}
	if c.TrackEnergy {
		ch.sideRec()
		ch.metered = true
	}
}

// sideRec returns the channel's side record, making it on first use.
func (ch *Channel) sideRec() *side {
	if ch.side == nil {
		ch.side = new(side)
	}
	return ch.side
}

// linkLayer returns the link layer of a reliable channel, nil on a lossless
// one.
func (ch *Channel) linkLayer() *link {
	if !ch.linked {
		return nil
	}
	return ch.side.link
}

// Name renders the channel's name for diagnostics: names.ChanName of its id
// for a channel of the machine names, "channel <id>" when names is nil.
func (ch *Channel) Name(names *topo.Machine) string {
	if names == nil {
		return fmt.Sprintf("channel %d", ch.ID)
	}
	return names.ChanName(int(ch.ID))
}

// Energy returns the channel's energy counters, or nil when it does not
// track energy.
func (ch *Channel) Energy() *EnergyCounters {
	if !ch.metered {
		return nil
	}
	return &ch.side.energy
}

// BindReceiver registers the receiving component: every packet entering the
// pipe sets bit of the component's inMask word and wakes it at the packet's
// arrival cycle.
func (ch *Channel) BindReceiver(e *sim.Engine, id int, inMask *uint32, bit uint) {
	ch.recvID = ch.bind(e, id)
	ch.recvMask, ch.recvBit = inMask, uint8(bit)
}

// BindSender registers the sending component: every credit entering the pipe
// sets bit of the component's credMask word and wakes it at the credit's
// arrival cycle.
func (ch *Channel) BindSender(e *sim.Engine, id int, credMask *uint32, bit uint) {
	ch.sndID = ch.bind(e, id)
	ch.sndMask, ch.sndBit = credMask, uint8(bit)
}

// bind records the engine a side is bound with and returns the component id
// its wakes go to, -1 without an engine. Both sides share one engine.
func (ch *Channel) bind(e *sim.Engine, id int) int32 {
	if e == nil {
		return -1
	}
	if ch.eng != nil && ch.eng != e {
		panic("fabric: " + ch.Name(nil) + " bound to two engines")
	}
	ch.eng = e
	return int32(id)
}

// wake wakes component id at cycle at, unless id is -1.
func (ch *Channel) wake(id int32, at uint64) {
	if id >= 0 {
		ch.eng.Wake(int(id), at)
	}
}

// pushPkt is the only place a packet enters the pipe: enqueue, mark the
// receiver's port ready, wake the receiver at the arrival cycle.
func (ch *Channel) pushPkt(at uint64, p *packet.Packet) {
	ch.pkts.SendAt(at, p)
	*ch.recvMask |= 1 << ch.recvBit
	ch.wake(ch.recvID, at)
}

// pushCredit is the only place a credit enters the pipe: enqueue, mark the
// sender's port ready, wake the sender at the arrival cycle.
func (ch *Channel) pushCredit(at uint64, msg creditMsg) {
	ch.credits.SendAt(at, msg)
	*ch.sndMask |= 1 << ch.sndBit
	ch.wake(ch.sndID, at)
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
	sd := ch.sideRec()
	ch.deferred, sd.sndStage, sd.recvStage = true, snd, recv
}

// flushStaged moves staged sends, credit returns, headers and acks into the
// pipes (setting ready bits and issuing wakes as a direct send would); a
// header enters with its packet's arrival cycle. A channel both of whose ends
// staged is on two lists; its second flush finds nothing.
func (ch *Channel) flushStaged() {
	sd := ch.side
	if l := ch.linkLayer(); l != nil {
		for i, h := range l.stagedHdrs {
			l.hdrs.SendAt(sd.stagedPkts[i].at, h)
		}
		l.stagedHdrs = l.stagedHdrs[:0]
		for _, s := range l.stagedAcks {
			ch.pushCtrl(s.at, s.c)
		}
		l.stagedAcks = l.stagedAcks[:0]
	}
	for i := range sd.stagedPkts {
		s := &sd.stagedPkts[i]
		ch.pushPkt(s.at, s.p)
		s.p = nil
	}
	sd.stagedPkts = sd.stagedPkts[:0]
	for _, s := range sd.stagedCreds {
		ch.pushCredit(s.at, s.msg)
	}
	sd.stagedCreds = sd.stagedCreds[:0]
}

// NumVCs returns the channel's physical VC count.
func (ch *Channel) NumVCs() int { return int(ch.numVCs) }

// AbsorbCredits drains returned credits into the sender-side counters, and
// clears the sender's ready bit once the credit pipe is empty. The sending
// component calls this at the top of its Tick for ports whose bit is set.
func (ch *Channel) AbsorbCredits(now uint64) {
	for {
		c, ok := ch.credits.Poll(now)
		if !ok {
			break
		}
		ch.credit[c.vc] += int16(c.flits)
	}
	if ch.credits.Empty() {
		*ch.sndMask &^= 1 << ch.sndBit
	}
}

// Credits returns the sender-side available credit for a VC, in flits.
func (ch *Channel) Credits(vc uint8) int { return int(ch.credit[vc]) }

// SendableAt returns the first cycle at which a packet of the given size can
// be forwarded on vc if no credit arrives before then: the later of the cycle
// the serializer frees up in (a small serialization FIFO lets the handoff
// overlap the previous flit's tail, so fractional rates like the torus 45/14
// cycles per flit are sustained exactly) and the end of a stall. It returns
// math.MaxUint64 — no cycle — when vc is short of credit for every flit
// (virtual cut-through), since only a credit return (which wakes the bound
// sender) or a resync audit (RestoreLostCredits) can change that, and for a
// permanently failed channel. On a reliable channel it also returns no cycle
// while the window is full or a replay is pending; an ack wakes the sender,
// and LinkWake names the cycles the rest needs. A sleeping sender uses it to
// pick the cycle it next has to look at the channel.
func (ch *Channel) SendableAt(vc uint8, flits uint8) uint64 {
	if ch.linked && !ch.side.link.snd.CanSend() {
		return math.MaxUint64
	}
	return ch.sendableAt(vc, flits)
}

// sendableAt is SendableAt below the link layer: what a replayed frame waits
// for.
func (ch *Channel) sendableAt(vc uint8, flits uint8) uint64 {
	if ch.credit[vc] < int16(flits) {
		return math.MaxUint64
	}
	return max(ch.busyUntilMilli/1000, ch.stallUntil)
}

// Send forwards a packet on vc and returns the arrival cycle. The packet
// arrives downstream when its last flit clears the serializer plus the
// channel latency. The caller must have found SendableAt(vc, p.Size) <= now.
// On a reliable channel the packet goes out as the link's next frame and
// stays in its window until the receiver acknowledges it.
func (ch *Channel) Send(now uint64, p *packet.Packet, vc uint8) uint64 {
	p.CurVC = vc
	if !ch.linked {
		return ch.transmit(now, p, vc)
	}
	l := ch.side.link
	if !l.snd.CanSend() {
		panic("fabric: Send before SendableAt on " + ch.Name(nil))
	}
	l.win = append(l.win, frame{p: p, vc: vc})
	return ch.sendFrame(now, p, l.snd.OnSend(now), vc)
}

func (ch *Channel) transmit(now uint64, p *packet.Packet, vc uint8) uint64 {
	if ch.sendableAt(vc, p.Size) > now {
		panic("fabric: Send before SendableAt on " + ch.Name(nil))
	}
	ch.credit[vc] -= int16(p.Size)
	ch.Sent += uint64(p.Size)
	ch.Pkts++

	if ch.metered {
		ch.countEnergy(now, p)
	}
	ch.sentAny = true

	start := now * 1000
	if ch.busyUntilMilli > start {
		start = ch.busyUntilMilli
	}
	ch.busyUntilMilli = start + uint64(p.Size)*uint64(ch.rate)
	// Arrival cycle: when the last flit has been serialized, plus wire
	// latency. Integer-rounded up; always at least now+1.
	arrive := (ch.busyUntilMilli+999)/1000 + ch.pkts.Latency() - 1
	if arrive <= now {
		arrive = now + 1
	}
	if ch.deferred && ch.eng.Parallel() {
		sd := ch.side
		if len(sd.stagedPkts) == 0 {
			sd.sndStage.chans = append(sd.sndStage.chans, ch)
		}
		sd.stagedPkts = append(sd.stagedPkts, stagedPkt{at: arrive, p: p})
		return arrive
	}
	ch.pushPkt(arrive, p)
	return arrive
}

func (ch *Channel) countEnergy(now uint64, p *packet.Packet) {
	sd := ch.side
	e := &sd.energy
	e.Flits += uint64(p.Size)
	// An activation is an idle-to-valid transition: the previous flit
	// finished strictly before this cycle began (back-to-back flits do
	// not activate), or this is the first flit ever.
	if !ch.sentAny || ch.busyUntilMilli < now*1000 {
		e.Activations++
	}
	if p.Payload != nil {
		e.HammingSum += uint64(packet.HammingDistance(sd.prevPayload, p.Payload))
		e.SetBitsSum += uint64(packet.SetBits(p.Payload)) * uint64(p.Size)
		sd.prevPayload = append(sd.prevPayload[:0], p.Payload...)
	}
}

// Recv polls for an arrived packet, and clears the receiver's ready bit once
// the packet pipe is empty. The receiving component calls this in its Tick
// for ports whose bit is set; credits guarantee it has buffer space for
// anything that arrives. On a reliable channel a frame the link layer drops
// (corrupt, out of order or a stale duplicate) comes back as (nil, true):
// nothing to take, but the pipe moved and may hold more.
func (ch *Channel) Recv(now uint64) (*packet.Packet, bool) {
	p, ok := ch.pkts.Poll(now)
	if ch.pkts.Empty() {
		*ch.recvMask &^= 1 << ch.recvBit
	}
	if ok && ch.linked && !ch.accept(now, p) {
		return nil, true
	}
	return p, ok
}

// ReturnCredit informs the sender that flits of buffer space freed on vc.
func (ch *Channel) ReturnCredit(now uint64, vc uint8, flits uint8) {
	if ch.lossy && ch.side.dropCredit(vc, flits) {
		ch.side.lost[vc] += int(flits)
		return
	}
	at, msg := now+ch.credits.Latency(), creditMsg{vc: vc, flits: flits}
	if ch.deferred && ch.eng.Parallel() {
		ch.fileRecv()
		ch.side.stagedCreds = append(ch.side.stagedCreds, stagedCred{at: at, msg: msg})
		return
	}
	ch.pushCredit(at, msg)
}

// fileRecv files the channel on the receiving shard's list when its
// receiving end is about to stage the cycle's first credit or ack.
func (ch *Channel) fileRecv() {
	if sd := ch.side; len(sd.stagedCreds) == 0 && (sd.link == nil || len(sd.link.stagedAcks) == 0) {
		sd.recvStage.chans = append(sd.recvStage.chans, ch)
	}
}

// EnableCreditLoss installs a credit-drop predicate and allocates the
// lost-credit ledger the resync audit restores from.
func (ch *Channel) EnableCreditLoss(drop func(vc, flits uint8) bool) {
	sd := ch.sideRec()
	sd.lost = make([]int, ch.numVCs)
	sd.dropCredit = drop
	ch.lossy = true
}

// lostLedger returns the lost-credit ledger, nil unless the channel is
// lossy.
func (ch *Channel) lostLedger() []int {
	if !ch.lossy {
		return nil
	}
	return ch.side.lost
}

// lostCredits returns the total credits currently dropped and unrestored.
func (ch *Channel) lostCredits() int {
	total := 0
	for _, n := range ch.lostLedger() {
		total += n
	}
	return total
}

// RestoreLostCredits models a credit resync audit at cycle now: every lost
// credit is re-added to the sender-side counters, and a bound sender that got
// any back is woken this cycle to use them, as it would be when scanned.
// Returns the number restored.
func (ch *Channel) RestoreLostCredits(now uint64) int {
	total := 0
	lost := ch.lostLedger()
	for vc, n := range lost {
		if n > 0 {
			ch.credit[vc] += int16(n)
			total += n
			lost[vc] = 0
		}
	}
	if total > 0 {
		ch.wake(ch.sndID, now)
	}
	return total
}

// SetStall blocks new sends on the channel until the given cycle. The fault
// layer uses it for transient stalls (finite until) and permanent outages
// (math.MaxUint64).
func (ch *Channel) SetStall(until uint64) { ch.stallUntil = until }

// Stalled reports whether the channel is refusing new frames at cycle now.
func (ch *Channel) Stalled(now uint64) bool { return ch.stallUntil > now }

// Quiet reports whether the channel holds no in-flight packets or credits; a
// reliable channel must also have no acks in flight, every frame
// acknowledged and no credit lost.
func (ch *Channel) Quiet() bool {
	if !ch.pkts.Empty() || !ch.credits.Empty() {
		return false
	}
	l := ch.linkLayer()
	return l == nil || l.ctrl.Empty() && l.snd.Quiet() && ch.lostCredits() == 0
}

// BufFlits returns the downstream per-VC buffer capacity in flits. It is the
// upper bound a sender-side credit counter may ever reach.
func (ch *Channel) BufFlits() int { return int(ch.bufFlits) }

// InFlight returns the number of packets currently traversing the channel
// (sent but not yet received). Invariant checkers use it for the flit
// conservation census. A reliable channel's pipe may hold several
// transmissions of one packet, so there it counts logical packets: the
// window frames the receiver has not accepted yet.
func (ch *Channel) InFlight() int {
	if l := ch.linkLayer(); l != nil {
		return int(l.snd.Next() - max(l.snd.Base(), l.rcv.Expected()))
	}
	return ch.pkts.Len()
}

// CreditsInFlight returns the number of credit returns currently traversing
// the channel's reverse path (returned but not yet absorbed).
func (ch *Channel) CreditsInFlight() int { return ch.credits.Len() }

// CorruptCreditsForTest deliberately skews the sender-side credit counter for
// vc by delta flits. It exists solely so negative tests can prove the
// invariant-checking layer catches credit-accounting bugs; production code
// must never call it.
func (ch *Channel) CorruptCreditsForTest(vc uint8, delta int) {
	ch.credit[vc] += int16(delta)
}

// FlitsSent returns the total flits forwarded over the channel's lifetime.
func (ch *Channel) FlitsSent() uint64 { return ch.Sent }

// RateMilli returns the serialization rate in millicycles per flit.
func (ch *Channel) RateMilli() uint64 { return uint64(ch.rate) }
