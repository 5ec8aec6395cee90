package machine

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"anton2/internal/fabric"
	"anton2/internal/fault"
	"anton2/internal/packet"
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

// winEntry is one unacknowledged frame held in the sender's retransmission
// buffer.
type winEntry struct {
	p  *packet.Packet
	vc uint8
}

// rlink is the go-back-N state of one reliable torus channel: the sender
// (owned by the upstream adapter), the receiver (owned by the downstream
// adapter) and the retransmission window. What travels on the wire — each
// frame's header and the acks and nacks — is the channel's
// (fabric.Channel.EnableLink), which stages it across shards like its packets.
type rlink struct {
	link int // dense torus link index (injector stream index)

	snd fault.Sender
	rcv fault.Receiver

	win []winEntry // frames base..next-1, in sequence order
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

	// mu guards the fatal record and the injection counter slot:
	// MakePacket may run on any shard worker (endpoint traffic sources
	// execute inside Tick), and so may a link running out of retries.
	mu sync.Mutex
	// fatal is set when a link exhausts its retry budget or a destination
	// becomes unreachable; RunUntilDelivered surfaces it instead of
	// spinning into the watchdog. fatalAt and fatalBy are the cycle it was
	// raised at and the component that raised it (raise).
	fatal   error
	fatalAt uint64
	fatalBy int
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

// raise records a fatal failure that component cid met at cycle now. Of
// several, the least (cycle, component id) is kept — the first a serial step,
// ticking in id order, meets — so a parallel phase keeps the same one
// whichever shard worker takes the lock first.
func (f *faultLayer) raise(now uint64, cid int, err error) {
	f.mu.Lock()
	if f.fatal == nil || now < f.fatalAt || now == f.fatalAt && cid < f.fatalBy {
		f.fatal, f.fatalAt, f.fatalBy = err, now, cid
	}
	f.mu.Unlock()
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
		ch.EnableLink()
		// The ack timeout covers the worst-case ack round trip
		// (serialization + two wire flights + receiver turnaround) plus a
		// stall episode.
		timeout := 8*ch.Latency() + 4*fault.StallCycles + 64
		f.rlinks[i] = &rlink{
			link: i,
			snd:  fault.NewSender(fault.Window, timeout, fault.RetryLimit),
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

// quiet reports whether every reliable link has all its frames
// acknowledged and no dropped credits await resync. (Acks in flight are
// their channel's: Channel.Quiet.)
func (f *faultLayer) quiet() bool {
	for i, rl := range f.rlinks {
		if rl != nil && (!rl.snd.Quiet() || f.links[i].LostCredits() > 0) {
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
		for i, rl := range m.flt.rlinks {
			if rl != nil && rl.snd.Outstanding() > 0 {
				add("link %s: %d frames unacked (attempts %d)\n", m.flt.links[i].Name, rl.snd.Outstanding(), rl.snd.Attempts())
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
