package machine

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"anton2/internal/fabric"
	"anton2/internal/fault"
	"anton2/internal/packet"
	"anton2/internal/sim"
)

// This file wires the internal/fault model into the machine: a faultLayer
// component that drives the injector (stall transitions, credit resyncs,
// permanent outages), and per-torus-link rlink state implementing the
// go-back-N reliable-link protocol at the channel adapters.
//
// The layer follows the same nil-guarded, zero-cost-off discipline as
// checking and telemetry: with Cfg.Fault == nil no rlink exists, every hook
// site is a single predicted branch, and simulation results are bit-identical
// to a build without the layer.

// linkCtrl is one ack/nack control message on a reliable link's reverse
// channel. Control messages ride a lossless pipe: real hardware protects
// them with their own CRC and repeats cumulative state, so modeling their
// loss adds latency but no new protocol states.
type linkCtrl struct {
	seq  uint64 // the receiver's next expected sequence (cumulative)
	nack bool
}

// frameMeta is the link-layer framing (sequence number, CRC verdict, wire
// VC) of one in-flight frame. It travels in a FIFO kept in lockstep with the
// channel's packet pipe rather than in the packet itself: a retransmission
// may duplicate a packet pointer whose routing state has already advanced
// downstream, so per-transmission state must live outside the packet.
type frameMeta struct {
	seq     uint64
	vc      uint8
	corrupt bool
}

// winEntry is one unacknowledged frame held in the sender's retransmission
// buffer.
type winEntry struct {
	p  *packet.Packet
	vc uint8
}

// stagedCtrl is one ack/nack buffered on a shard-crossing link until the
// phase barrier, with the arrival cycle it would have had if sent directly.
type stagedCtrl struct {
	at uint64
	c  linkCtrl
}

// rlink is the reliable-link state for one torus channel: the go-back-N
// sender (owned by the upstream adapter) and receiver (owned by the
// downstream adapter), the retransmission window, the in-flight frame
// metadata FIFO, and the reverse control pipe.
type rlink struct {
	link int // dense torus link index (injector stream index)
	ch   *fabric.Channel

	snd fault.Sender
	rcv fault.Receiver

	win      []winEntry // frames base..next-1, in sequence order
	meta     []frameMeta
	metaHead int

	ctrl *sim.Pipe[linkCtrl] // receiver -> sender ack/nack channel

	// Active-set binding of the sender adapter, so acks wake it.
	sndE  *sim.Engine
	sndID int32

	// sndStage and recvStage are non-nil on a link that crosses a shard
	// boundary: during a parallel phase frame metadata and control messages
	// are staged by the owning shard, which files the link on its list, and
	// flushed at the phase barrier (in lockstep with the channel's staged
	// packets). They follow the channel's rule exactly: a serially stepped
	// cycle stages nothing.
	sndStage, recvStage *[]*rlink
	metaStage           []frameMeta
	ctrlStage           []stagedCtrl
}

func (rl *rlink) pushMeta(seq uint64, vc uint8, corrupt bool) {
	if rl.sndStage != nil && rl.sndE.Parallel() {
		if len(rl.metaStage) == 0 {
			*rl.sndStage = append(*rl.sndStage, rl)
		}
		rl.metaStage = append(rl.metaStage, frameMeta{seq: seq, vc: vc, corrupt: corrupt})
		return
	}
	rl.meta = append(rl.meta, frameMeta{seq: seq, vc: vc, corrupt: corrupt})
}

// pushCtrl is the only place an ack/nack enters the control pipe: enqueue and
// wake the sender adapter at the arrival cycle.
func (rl *rlink) pushCtrl(at uint64, c linkCtrl) {
	rl.ctrl.SendAt(at, c)
	if rl.sndE != nil {
		rl.sndE.Wake(int(rl.sndID), at)
	}
}

// sendCtrl issues one ack/nack toward the sender adapter; on shard-crossing
// links in a parallel phase the message is staged for the barrier flush
// instead.
func (rl *rlink) sendCtrl(now uint64, c linkCtrl) {
	at := now + rl.ctrl.Latency()
	if rl.recvStage != nil && rl.sndE.Parallel() {
		if len(rl.ctrlStage) == 0 {
			*rl.recvStage = append(*rl.recvStage, rl)
		}
		rl.ctrlStage = append(rl.ctrlStage, stagedCtrl{at: at, c: c})
		return
	}
	rl.pushCtrl(at, c)
}

// flush moves staged frame metadata and control messages into the live
// structures. Coordinator-only, at the phase barrier; the channel's staged
// packets flush in the same barrier, keeping the meta FIFO in lockstep. A
// link both of whose ends staged is on two lists; its second flush finds
// nothing.
func (rl *rlink) flush() {
	if len(rl.metaStage) > 0 {
		rl.meta = append(rl.meta, rl.metaStage...)
		rl.metaStage = rl.metaStage[:0]
	}
	for _, s := range rl.ctrlStage {
		rl.pushCtrl(s.at, s.c)
	}
	rl.ctrlStage = rl.ctrlStage[:0]
}

// popMeta pairs the next arriving frame with its metadata. The packet pipe
// and the metadata FIFO are both FIFO and written together, so they stay in
// lockstep by construction.
func (rl *rlink) popMeta() frameMeta {
	mt := rl.meta[rl.metaHead]
	rl.metaHead++
	if rl.metaHead == len(rl.meta) {
		rl.meta = rl.meta[:0]
		rl.metaHead = 0
	} else if rl.metaHead > 64 && rl.metaHead*2 >= len(rl.meta) {
		n := copy(rl.meta, rl.meta[rl.metaHead:])
		rl.meta = rl.meta[:n]
		rl.metaHead = 0
	}
	return mt
}

// live returns the number of window frames the receiver has not yet
// accepted. The conservation census counts these instead of the channel
// pipe, whose contents may include duplicates of one logical packet.
func (rl *rlink) live() int {
	lo := rl.snd.Base()
	if e := rl.rcv.Expected(); e > lo {
		lo = e
	}
	return int(rl.snd.Next() - lo)
}

// quiet reports whether the link's protocol state is fully drained.
func (rl *rlink) quiet() bool {
	return rl.snd.Quiet() && rl.ctrl.Empty()
}

// faultLayer owns the injector and the per-link reliability state. It is
// registered as the first engine component — and is the engine's serial
// prefix under sharding — so stall transitions and credit resyncs precede
// all adapter ticks within a cycle.
type faultLayer struct {
	m    *Machine
	spec fault.Spec
	inj  *fault.Injector
	cid  int // engine component id

	// cnt holds per-shard counter slots so shard workers increment fault
	// counters without contention: slot s accumulates events observed by
	// shard s's adapters, and the extra last slot (injSlot) takes
	// injection-path and coordinator events. counters() sums them.
	cnt []fault.Counters
	// recvShard maps a dense torus link index to the shard of its receiving
	// adapter — the component that evaluates DropCredit for that link.
	recvShard []int32

	torusBase  int
	links      []*fabric.Channel // dense torus index -> channel
	rlinks     []*rlink          // dense torus index -> reliable link; nil for failed links
	failed     map[int]bool      // global channel ids of permanent outages
	failedList []int             // same, sorted

	// mu guards fatal and the injection counter slot: MakePacket may run on
	// any shard worker (endpoint traffic sources execute inside Tick).
	mu sync.Mutex
	// fatal is set when a link exhausts its retry budget or a destination
	// becomes unreachable; RunUntilDelivered surfaces it instead of
	// spinning into the watchdog.
	fatal error
	// fatalSh holds each shard's first fatal until the phase barrier. If
	// several links die in the same cycle, serial stepping keeps the one
	// from the lowest component id; resolveFatal reproduces that by scanning
	// the slots in shard order, so the surfaced error does not depend on
	// worker scheduling.
	fatalSh []error
}

// injSlot is the counter slot for injection-path and coordinator events.
func (f *faultLayer) injSlot() int { return len(f.cnt) - 1 }

// counters sums the per-shard slots into one machine-wide snapshot.
func (f *faultLayer) counters() fault.Counters {
	var total fault.Counters
	for i := range f.cnt {
		total.Add(f.cnt[i])
	}
	return total
}

// setFatal records the first fatal protocol failure.
func (f *faultLayer) setFatal(err error) {
	f.mu.Lock()
	if f.fatal == nil {
		f.fatal = err
	}
	f.mu.Unlock()
}

// setFatalShard records a fatal failure observed by one shard's adapters. A
// serially stepped cycle sets the machine-wide fatal directly (tick order
// already picks the serial winner); a parallel phase stages per shard and
// resolves at the barrier.
func (f *faultLayer) setFatalShard(shard int, err error) {
	if !f.m.Engine.Parallel() {
		f.setFatal(err)
		return
	}
	if f.fatalSh[shard] == nil {
		f.fatalSh[shard] = err
	}
}

// resolveFatal promotes the lowest-shard staged fatal. Coordinator-only, at
// the phase barrier.
func (f *faultLayer) resolveFatal() {
	if f.fatal != nil {
		return
	}
	for _, e := range f.fatalSh {
		if e != nil {
			f.fatal = e
			return
		}
	}
}

func newFaultLayer(m *Machine, spec fault.Spec) *faultLayer {
	base := m.Topo.NumNodes() * m.Topo.NumIntraChans()
	n := len(m.chans) - base
	f := &faultLayer{
		m:         m,
		spec:      spec,
		inj:       fault.NewInjector(spec, m.Cfg.Seed, n),
		cnt:       make([]fault.Counters, len(m.shards)+1),
		recvShard: make([]int32, n),
		fatalSh:   make([]error, len(m.shards)),
		torusBase: base,
		links:     make([]*fabric.Channel, n),
		rlinks:    make([]*rlink, n),
		failed:    map[int]bool{},
	}
	for i := 0; i < n; i++ {
		f.links[i] = m.chans[base+i]
	}
	for _, li := range f.inj.FailedLinks(n) {
		ch := f.links[li]
		f.failed[ch.ID] = true
		f.failedList = append(f.failedList, ch.ID)
		ch.SetStall(math.MaxUint64)
		f.cnt[f.injSlot()].LinksFailed++
	}
	for i, ch := range f.links {
		if f.failed[ch.ID] {
			continue
		}
		ch.CensusExempt = true
		// The ack timeout covers the worst-case ack round trip
		// (serialization + two wire flights + receiver turnaround) plus a
		// stall episode.
		timeout := 8*ch.Latency() + 4*fault.StallCycles + 64
		f.rlinks[i] = &rlink{
			link: i,
			ch:   ch,
			snd:  fault.NewSender(fault.Window, timeout, fault.RetryLimit),
			ctrl: sim.NewPipe[linkCtrl](ch.Latency()),
		}
		if spec.CreditLossRate > 0 {
			li := i
			ch.EnableCreditLoss(func(vc, flits uint8) bool {
				if f.inj.DropCreditNext(li) {
					// Credit returns run on the receiving adapter's
					// shard; its counter slot is contention-free.
					f.cnt[f.recvShard[li]].CreditsDropped += uint64(flits)
					return true
				}
				return false
			})
		}
	}
	return f
}

// rlinkFor returns the reliable link for a global torus channel id, or nil
// for failed links.
func (f *faultLayer) rlinkFor(chanID int) *rlink {
	return f.rlinks[chanID-f.torusBase]
}

// Tick implements sim.Component: per-cycle stall transitions and the
// periodic credit resync audit. The layer ticks inside the engine's serial
// prefix, so its effects are visible to adapters in the same cycle — exactly
// as in scan mode, where it is the first-registered component.
func (f *faultLayer) Tick(now uint64) {
	if f.spec.StallRate > 0 {
		for i, ch := range f.links {
			if f.rlinks[i] == nil || ch.Stalled(now) {
				continue
			}
			if f.inj.StallNext(i) {
				ch.SetStall(now + fault.StallCycles)
				f.cnt[f.injSlot()].StallsInjected++
			}
		}
	}
	if f.spec.CreditLossRate > 0 && now%fault.ResyncInterval == 0 {
		for i, ch := range f.links {
			if f.rlinks[i] == nil {
				continue
			}
			if n := ch.RestoreLostCredits(); n > 0 {
				f.cnt[f.injSlot()].CreditsRestored += uint64(n)
				// The restored credits belong to the channel's sender;
				// wake it this cycle so it can use them, as it would
				// when scanned.
				ch.WakeSender(now)
			}
		}
	}
	// Self-arm. Stall injection draws once per healthy link per cycle, so
	// per-cycle draws must continue (this also pins the engine to stepping
	// every cycle, which is what keeps the draw sequence identical to scan
	// mode). Credit resync audits only act on ResyncInterval multiples;
	// corrupt-only and outage-only specs need no coordinator ticks at all —
	// their draws happen at the adapters' send and credit-return sites.
	switch {
	case f.spec.StallRate > 0:
		f.m.Engine.Wake(f.cid, now+1)
	case f.spec.CreditLossRate > 0:
		f.m.Engine.Wake(f.cid, now-now%fault.ResyncInterval+fault.ResyncInterval)
	}
}

// windowLive sums unaccepted window frames across all reliable links.
func (f *faultLayer) windowLive() int {
	total := 0
	for _, rl := range f.rlinks {
		if rl != nil {
			total += rl.live()
		}
	}
	return total
}

// quiet reports whether every reliable link has drained its protocol state
// and no dropped credits await resync.
func (f *faultLayer) quiet() bool {
	for i, rl := range f.rlinks {
		if rl == nil {
			continue
		}
		if !rl.quiet() || f.links[i].LostCredits() > 0 {
			return false
		}
	}
	return true
}

// FaultStatus is a snapshot of the machine's fault state for reporting.
type FaultStatus struct {
	Counters fault.Counters // protocol and injector event counts
	Degraded bool           // the run survived permanent faults or reroutes
}

// degraded classifies the run: link outages and emergency reroutes concede
// degradation for static strategies, but a fault-aware strategy
// (route.FaultRouter) absorbs outages as part of its algorithm — only an
// emergency reroute (which it never takes) would degrade it.
func (m *Machine) degraded(c fault.Counters) bool {
	if m.faultAware {
		return c.Rerouted > 0
	}
	return c.LinksFailed > 0 || c.Rerouted > 0
}

// FaultStatus returns the current fault-layer snapshot, or nil when no fault
// spec is attached.
func (m *Machine) FaultStatus() *FaultStatus {
	if m.flt == nil {
		return nil
	}
	c := m.flt.counters()
	return &FaultStatus{Counters: c, Degraded: m.degraded(c)}
}

// deadlockDetail renders the per-router blocked-VC summary attached to
// sim.ErrDeadlock snapshots. It runs only on the watchdog failure path.
func (m *Machine) deadlockDetail() string {
	var b strings.Builder
	const maxLines = 24
	lines := 0
	add := func(format string, args ...any) {
		if lines < maxLines {
			fmt.Fprintf(&b, format, args...)
		}
		lines++
	}
	for _, node := range m.nodes {
		for ri, r := range node.Routers {
			for pi := range r.ports {
				for vci := range r.ports[pi].vcs {
					if n := r.ports[pi].vcs[vci].flits(); n > 0 {
						add("node %d router %d port %d vc %d: %d flits blocked\n", node.ID, ri, pi, vci, n)
					}
				}
			}
		}
		for ai, a := range node.Adapters {
			for vci := range a.eg {
				if n := a.eg[vci].flits(); n > 0 {
					add("node %d adapter %d egress vc %d: %d flits blocked\n", node.ID, ai, vci, n)
				}
			}
			for vci := range a.ing {
				if n := a.ing[vci].flits(); n > 0 {
					add("node %d adapter %d ingress vc %d: %d flits blocked\n", node.ID, ai, vci, n)
				}
			}
		}
		for ei, e := range node.Endpoints {
			if n := e.pending(); n > 0 {
				add("node %d endpoint %d: %d pkts pending injection\n", node.ID, ei, n)
			}
		}
	}
	if m.flt != nil {
		for _, rl := range m.flt.rlinks {
			if rl != nil && rl.snd.Outstanding() > 0 {
				add("link %s: %d frames unacked (attempts %d)\n", rl.ch.Name, rl.snd.Outstanding(), rl.snd.Attempts())
			}
		}
		for _, id := range m.flt.failedList {
			add("link %s: permanently failed\n", m.chans[id].Name)
		}
	}
	if lines > maxLines {
		fmt.Fprintf(&b, "... and %d more blocked units\n", lines-maxLines)
	}
	return strings.TrimRight(b.String(), "\n")
}
