// Package telemetry is the opt-in observability layer for the simulated
// machine: time-resolved per-channel flit counts and utilization, per-router
// per-VC occupancy histograms, per-arbiter grant counters (so Section 3's
// equality-of-service claim can be checked as Jain's index over grant shares
// at any port), and packet lifecycle traces exportable as Chrome trace_event
// JSON for Perfetto.
//
// Like internal/check, the layer follows the zero-cost-when-off discipline:
// every hook site in the machine guards on a nil collector, so disabled
// telemetry costs one predicted branch and zero allocations per cycle, and an
// enabled collector only ever reads simulation state — it never perturbs
// results, seeds, or experiment cache keys. The bit-identity tests in this
// package enforce that.
//
// The package deliberately does not import internal/machine (machine imports
// telemetry); the Env struct carries the few machine facts the collector
// needs.
package telemetry

import (
	"anton2/internal/exp"
	"anton2/internal/fabric"
	"anton2/internal/packet"
	"anton2/internal/stats"
	"anton2/internal/topo"
	"anton2/internal/wire"
)

// The collector's fixed resolution.
const (
	// windowCycles is the initial sampling window width in cycles.
	// Per-channel flit counts are accumulated per window, giving a
	// time-resolved analogue of loadcalc.Loads.
	windowCycles = 1024
	// maxWindows bounds the windows kept per channel. When a run outgrows
	// it, the window width doubles and adjacent windows merge, so memory
	// stays constant for arbitrarily long runs; it is even, so the halving
	// is exact and window boundaries stay aligned.
	maxWindows = 64
	// occBins is the per-(router,VC) occupancy histogram resolution.
	occBins = 16
	// tracePackets is the lifecycle-trace budget (see OnInject).
	tracePackets = 4
)

// Options names where a collector's report goes.
type Options struct {
	// Dir, when non-empty, makes Finish write the report as
	// <Dir>/<Name>.json (plus <Dir>/<Name>.trace.json when packet traces
	// were collected) through the internal/exp artifact writer.
	Dir string
	// Name is the artifact base name.
	Name string
	// Sink, when non-nil, receives the finished report in addition to —
	// or instead of — the JSON artifacts.
	Sink func(*Report)
}

// Env carries the observed machine's geometry and state accessors. It is
// filled by machine.New; the collector never mutates anything it references.
type Env struct {
	Topo     *topo.Machine
	Channels []fabric.Channel // global channel id -> channel
	// MaxVCs is the per-port VC array stride (route.MaxTotalVCs).
	MaxVCs int
	// CyclePS is the cycle time in picoseconds (trace timestamp scale).
	CyclePS float64
	// ScanVCOccupancy visits the queued flit count of every (chip router,
	// VC) pair, summed over the router's input ports, for one node after
	// another; the collector aggregates identically-placed routers across
	// nodes.
	ScanVCOccupancy func(visit func(router int, vc uint8, flits int))
	// FaultCounters, when non-nil, snapshots the machine's fault-injection
	// and reliable-link protocol counters for the report (nil when the
	// fault layer is not attached, keeping fault-free reports byte-stable).
	FaultCounters func() map[string]uint64
}

// Collector accumulates telemetry for one machine. All hook methods are safe
// to call every cycle; the periodic sampling runs from Observe, at window
// boundaries only. Under sharded stepping the grant hooks run on the shard
// workers, each writing only its own nodes' counters, OnInject touches the
// collector only for node 0's injections, which one worker makes, and
// everything else runs between steps.
type Collector struct {
	env  Env
	opts Options

	maxVCs int

	// The last sample was taken nextSample - window cycles in (0: none yet).
	window     uint64 // current window width in cycles
	nextSample uint64 // elapsed-cycle count of the next window boundary
	partial    uint64 // width of the trailing partial window (0 = none)

	prevSent []uint64   // per-channel flit counter at the last sample
	series   [][]uint64 // per-channel flits per window

	// Per-(chip router, VC) occupancy, aggregated across nodes.
	occ    []*stats.Histogram
	occSum []uint64
	occMax []int

	// Grant counters, dense over every arbitration point.
	sa1  []uint64 // ((node*NumRouters+router)*MaxRouterPorts+port)*maxVCs + vc
	sa2  []uint64 // ((node*NumRouters+router)*MaxRouterPorts+outPort)*MaxRouterPorts + inPort
	adEg []uint64 // (node*NumChannelAdapters+adapter)*maxVCs + vc
	adIn []uint64 // (node*NumChannelAdapters+adapter)*maxVCs + vc

	// traced lists the traced packets in injection order, at most
	// tracePackets of them; an entry goes nil when its packet is delivered.
	traced []*packet.Packet
	traces []PacketTrace

	elapsed  uint64
	finished bool
}

// NewCollector builds a collector for the given environment. machine.New
// calls this when Config.Telemetry is set.
func NewCollector(env Env, opts Options) *Collector {
	nodes := env.Topo.NumNodes()
	c := &Collector{
		env:        env,
		opts:       opts,
		maxVCs:     env.MaxVCs,
		window:     windowCycles,
		nextSample: windowCycles,
		prevSent:   make([]uint64, len(env.Channels)),
		series:     make([][]uint64, len(env.Channels)),
		occ:        make([]*stats.Histogram, topo.NumRouters*env.MaxVCs),
		occSum:     make([]uint64, topo.NumRouters*env.MaxVCs),
		occMax:     make([]int, topo.NumRouters*env.MaxVCs),
		sa1:        make([]uint64, nodes*topo.NumRouters*topo.MaxRouterPorts*env.MaxVCs),
		sa2:        make([]uint64, nodes*topo.NumRouters*topo.MaxRouterPorts*topo.MaxRouterPorts),
		adEg:       make([]uint64, nodes*topo.NumChannelAdapters*env.MaxVCs),
		adIn:       make([]uint64, nodes*topo.NumChannelAdapters*env.MaxVCs),
		traced:     make([]*packet.Packet, 0, tracePackets),
	}
	// Occupancy can exceed one VC buffer when several input ports of the
	// same router queue into the same VC index; size the range for the
	// worst case and let histogram clamping absorb the rest.
	occRange := float64(topo.MeshVCBuf * topo.MaxRouterPorts)
	for i := range c.occ {
		c.occ[i] = stats.NewHistogram(0, occRange, occBins)
	}
	return c
}

// Observe is the collector's engine observer (sim.Engine.Observe): the clock
// has arrived at now, so now cycles have elapsed. It closes the window when
// now has reached its boundary and returns the next boundary — which moves
// out as windows merge — as the next deadline.
func (c *Collector) Observe(now uint64) (next uint64) {
	if now >= c.nextSample {
		c.closeWindow()
		if len(c.series) > 0 && len(c.series[0]) >= maxWindows {
			c.mergeWindows()
		}
		c.nextSample = now + c.window
	}
	return c.nextSample
}

// closeWindow appends the window ending now to every channel's series and
// samples occupancy.
func (c *Collector) closeWindow() {
	for i := range c.env.Channels {
		sent := c.env.Channels[i].FlitsSent()
		c.series[i] = append(c.series[i], sent-c.prevSent[i])
		c.prevSent[i] = sent
	}
	if c.env.ScanVCOccupancy != nil {
		c.env.ScanVCOccupancy(c.addOcc)
	}
}

// mergeWindows halves the series by summing adjacent windows and doubles the
// window width.
func (c *Collector) mergeWindows() {
	half := len(c.series[0]) / 2
	for i := range c.series {
		s := c.series[i]
		for j := 0; j < half; j++ {
			s[j] = s[2*j] + s[2*j+1]
		}
		c.series[i] = s[:half]
	}
	c.window *= 2
}

func (c *Collector) addOcc(router int, vc uint8, flits int) {
	i := router*c.maxVCs + int(vc)
	c.occ[i].Add(float64(flits))
	c.occSum[i] += uint64(flits)
	if flits > c.occMax[i] {
		c.occMax[i] = flits
	}
}

// OnSA1Grant records an input-port switch-arbitration nomination: the given
// VC won port's SA1 stage this cycle.
func (c *Collector) OnSA1Grant(node, router, port, vc int) {
	c.sa1[((node*topo.NumRouters+router)*topo.MaxRouterPorts+port)*c.maxVCs+vc]++
}

// OnSA2Grant records an output-port switch-arbitration grant: the given
// input port won outPort's SA2 stage and transferred a packet.
func (c *Collector) OnSA2Grant(node, router, outPort, inPort int) {
	c.sa2[((node*topo.NumRouters+router)*topo.MaxRouterPorts+outPort)*topo.MaxRouterPorts+inPort]++
}

// OnAdapterGrant records a channel-adapter arbitration win (egress: mesh
// onto the torus serializer; ingress: torus toward the router) for the given
// arrival VC.
func (c *Collector) OnAdapterGrant(egress bool, node, adapter, vc int) {
	if egress {
		c.adEg[(node*topo.NumChannelAdapters+adapter)*c.maxVCs+vc]++
	} else {
		c.adIn[(node*topo.NumChannelAdapters+adapter)*c.maxVCs+vc]++
	}
}

// OnInject considers a freshly injected packet for lifecycle tracing: the
// first tracePackets unicast packets injected at node 0 are traced, adopting
// the trace of one the caller already started. Multicast packets are skipped
// (their clones alias the original's trace buffer), and so is every other
// node: node 0 lies in one shard, so the list has one writer however the
// machine is sharded, and which packets are traced does not depend on the
// worker schedule.
func (c *Collector) OnInject(p *packet.Packet) {
	if p.MGroup >= 0 || p.Src.Node != 0 || len(c.traced) == tracePackets {
		return
	}
	p.StartTrace()
	c.traced = append(c.traced, p)
}

// OnDeliver captures the completed trace of a tracked packet before the
// machine recycles it. The trace is named by its 1-based injection ordinal.
func (c *Collector) OnDeliver(p *packet.Packet) {
	if p.Trace == nil {
		return
	}
	for i, q := range c.traced {
		if q != p {
			continue
		}
		c.traced[i] = nil
		c.traces = append(c.traces, PacketTrace{
			ID:          uint64(i + 1),
			Src:         epName(p.Src),
			Dst:         epName(p.Dst),
			InjectedAt:  p.InjectedAt,
			DeliveredAt: p.DeliveredAt,
			Events:      append([]packet.TraceEvent(nil), p.Trace...),
		})
		return
	}
}

// Finish closes the trailing partial window, builds the report, and emits it
// through the configured sink and artifact directory. elapsed is the total
// cycles simulated (sim.Engine.Now()). Finish is idempotent.
func (c *Collector) Finish(elapsed uint64) error {
	if c.finished {
		return nil
	}
	c.finished = true
	if last := c.nextSample - c.window; elapsed > last {
		c.partial = elapsed - last
		c.closeWindow()
	}
	c.elapsed = elapsed
	report := c.buildReport()
	if c.opts.Sink != nil {
		c.opts.Sink(report)
	}
	if c.opts.Dir != "" {
		if _, err := exp.WriteJSON(c.opts.Dir, c.opts.Name, report); err != nil {
			return err
		}
		if len(report.Traces) > 0 {
			trace := chromeTrace(report.Traces, c.env.CyclePS)
			if _, err := exp.WriteJSON(c.opts.Dir, c.opts.Name+".trace", trace); err != nil {
				return err
			}
		}
	}
	return nil
}

// State codes the collector's state in a machine snapshot record: window
// width and next boundary, the series with each channel's flit count at the
// last sample, the occupancy histograms with sums and maxima, the grant
// counters, the traced list (ref's nilable spelling: a delivered packet is
// nil) and the finished traces. A traced packet's events are in its packet
// record. Decoding fills a fresh collector.
func (c *Collector) State(w *wire.Codec, ref func(p *packet.Packet, nilable bool) *packet.Packet) {
	w.Uvarint(&c.window)
	w.Uvarint(&c.nextSample)
	windows := len(c.series[0])
	if w.Int(&windows); windows >= maxWindows {
		w.Fail("telemetry: %d windows", windows)
		return
	}
	uvarints(w, c.prevSent)
	for i := range c.series {
		if len(c.series[i]) != windows {
			c.series[i] = make([]uint64, windows)
		}
		uvarints(w, c.series[i])
	}
	for i, h := range c.occ {
		w.Uvarint(&h.Total)
		uvarints(w, h.Counts)
		w.Uvarint(&c.occSum[i])
		w.Int(&c.occMax[i])
	}
	for _, g := range [...][]uint64{c.sa1, c.sa2, c.adEg, c.adIn} {
		uvarints(w, g)
	}
	if wire.List(w, &c.traced, 1); len(c.traced) > tracePackets {
		w.Fail("telemetry: %d traced packets", len(c.traced))
		return
	}
	for i := range c.traced {
		c.traced[i] = ref(c.traced[i], true)
	}
	wire.List(w, &c.traces, 6)
	for i := range c.traces {
		t := &c.traces[i]
		w.Uvarint(&t.ID)
		w.String(&t.Src)
		w.String(&t.Dst)
		w.Uvarint(&t.InjectedAt)
		w.Uvarint(&t.DeliveredAt)
		packet.TraceState(w, &t.Events)
	}
}

func uvarints(w *wire.Codec, vs []uint64) {
	for i := range vs {
		w.Uvarint(&vs[i])
	}
}
