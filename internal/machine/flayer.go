package machine

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"anton2/internal/fabric"
	"anton2/internal/fault"
)

// This file wires the internal/fault model into the machine: a faultLayer
// component that drives the injector (stall transitions, credit resyncs,
// permanent outages) and makes every healthy torus channel reliable. The
// go-back-N link layer itself is the channel's (fabric.Channel.EnableLink):
// a channel adapter uses a reliable channel as it uses a lossless one.
//
// The layer follows the same nil-guarded, zero-cost-off discipline as
// checking and telemetry: with Cfg.Fault == nil no channel is reliable, every
// hook site is a single predicted branch, and simulation results are
// bit-identical to a build without the layer.

// faultLayer owns the injector, the failed links, its own event counters and
// the fatal rule. It is registered as the first engine component — and is
// the engine's serial prefix under sharding — so stall transitions and
// credit resyncs precede all adapter ticks within a cycle.
type faultLayer struct {
	m    *Machine
	spec fault.Spec
	inj  *fault.Injector
	cid  int // engine component id

	links      []fabric.Channel // dense torus index -> channel
	failed     map[int]bool     // global channel ids of permanent outages
	failedList []int            // same, sorted

	// mu guards the counters and the fatal record: MakePacket may run on
	// any shard worker (endpoint traffic sources execute inside Tick), and
	// so may a credit drop or a link running out of retries.
	mu sync.Mutex
	// cnt counts the injector's events and the reroutes; each reliable
	// channel counts its own protocol events (counters sums both).
	cnt fault.Counters
	// fatal is set when a link exhausts its retry budget or a destination
	// becomes unreachable; RunUntilDelivered surfaces it instead of
	// spinning into the watchdog. fatalAt and fatalBy are the cycle it was
	// raised at and the component that raised it (raise).
	fatal   error
	fatalAt uint64
	fatalBy int
}

// counters sums the layer's counters and every link's into one machine-wide
// snapshot.
func (f *faultLayer) counters() fault.Counters {
	f.mu.Lock()
	total := f.cnt
	f.mu.Unlock()
	for i := range f.links {
		total.Add(f.links[i].LinkCounters())
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
		m:      m,
		spec:   spec,
		inj:    fault.NewInjector(spec, m.Cfg.Seed, n),
		links:  m.chans[base:],
		failed: map[int]bool{},
	}
	for _, li := range f.inj.FailedLinks(n) {
		ch := &f.links[li]
		f.failed[int(ch.ID)] = true
		f.failedList = append(f.failedList, int(ch.ID))
		ch.SetStall(math.MaxUint64)
		f.cnt.LinksFailed++
	}
	for i := range f.links {
		ch := &f.links[i]
		if f.failed[int(ch.ID)] {
			continue
		}
		li := i
		ch.EnableLink(func() bool { return f.inj.CorruptNext(li) })
		if spec.CreditLossRate > 0 {
			ch.EnableCreditLoss(func(vc, flits uint8) bool {
				if !f.inj.DropCreditNext(li) {
					return false
				}
				f.mu.Lock()
				f.cnt.CreditsDropped += uint64(flits)
				f.mu.Unlock()
				return true
			})
		}
	}
	return f
}

// Tick implements sim.Component: per-cycle stall transitions and the
// periodic credit resync audit. The layer ticks inside the engine's serial
// prefix, so its effects are visible to adapters in the same cycle — exactly
// as in scan mode, where it is the first-registered component. A failed link
// is stalled for good and keeps no lost-credit ledger, so both loops pass it
// by.
func (f *faultLayer) Tick(now uint64) {
	if f.spec.StallRate > 0 {
		for i := range f.links {
			if ch := &f.links[i]; !ch.Stalled(now) && f.inj.StallNext(i) {
				ch.SetStall(now + fault.StallCycles)
				f.mu.Lock()
				f.cnt.StallsInjected++
				f.mu.Unlock()
			}
		}
	}
	if f.spec.CreditLossRate > 0 && now%fault.ResyncInterval == 0 {
		for i := range f.links {
			if n := f.links[i].RestoreLostCredits(now); n > 0 {
				f.mu.Lock()
				f.cnt.CreditsRestored += uint64(n)
				f.mu.Unlock()
			}
		}
	}
	// Self-arm. Stall injection draws once per healthy link per cycle, so
	// per-cycle draws must continue (this also pins the engine to stepping
	// every cycle, which is what keeps the draw sequence identical to scan
	// mode). Credit resync audits only act on ResyncInterval multiples;
	// corrupt-only and outage-only specs need no coordinator ticks at all —
	// their draws happen at the channels' send and credit-return sites.
	switch {
	case f.spec.StallRate > 0:
		f.m.Engine.Wake(f.cid, now+1)
	case f.spec.CreditLossRate > 0:
		f.m.Engine.Wake(f.cid, now-now%fault.ResyncInterval+fault.ResyncInterval)
	}
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
	queues := func(s *vcset, who string, args ...any) {
		for vci := range s.vcs {
			if n := s.vcs[vci].flits(); n > 0 {
				add(who+" vc %d: %d flits blocked\n", append(args, vci, n)...)
			}
		}
	}
	for i := range m.nodes {
		node := &m.nodes[i]
		for ri, r := range node.Routers {
			for pi := range r.ports {
				queues(&r.ports[pi].vcset, "node %d router %d port %d", node.ID, ri, pi)
			}
		}
		for ai, a := range node.Adapters {
			queues(&a.eg, "node %d adapter %d egress", node.ID, ai)
			queues(&a.ing, "node %d adapter %d ingress", node.ID, ai)
		}
		for ei, e := range node.Endpoints {
			if e.queued > 0 {
				add("node %d endpoint %d: %d pkts pending injection\n", node.ID, ei, e.queued)
			}
		}
	}
	if m.flt != nil {
		for i := range m.flt.links {
			ch := &m.flt.links[i]
			if n := ch.InFlight(); n > 0 {
				add("link %s: %d packets not yet accepted\n", ch.Name(m.Topo), n)
			}
		}
		for _, id := range m.flt.failedList {
			add("link %s: permanently failed\n", m.Topo.ChanName(id))
		}
	}
	if lines > maxLines {
		fmt.Fprintf(&b, "... and %d more blocked units\n", lines-maxLines)
	}
	return strings.TrimRight(b.String(), "\n")
}
