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
)

// Defaults for the zero Options value.
const (
	DefaultWindowCycles = 1024
	DefaultMaxWindows   = 64
	DefaultOccBins      = 16
)

// Options tunes a collector. The zero value gives sensible defaults with
// packet tracing disabled.
type Options struct {
	// WindowCycles is the sampling window width in cycles (default 1024).
	// Per-channel flit counts are accumulated per window, giving a
	// time-resolved analogue of loadcalc.Loads.
	WindowCycles uint64
	// MaxWindows bounds the number of windows kept per channel (default
	// 64, rounded up to even). When a run outgrows the bound, the window
	// width doubles and adjacent windows merge, so memory stays constant
	// for arbitrarily long runs.
	MaxWindows int
	// TracePackets is the lifecycle-trace budget: the first N eligible
	// unicast packets injected get a full hop-by-hop trace (default 0 =
	// tracing off). Packets the caller already started tracing via
	// packet.StartTrace are adopted without consuming budget.
	TracePackets int
	// OccBins is the per-(router,VC) occupancy histogram resolution
	// (default 16 bins).
	OccBins int

	// Dir, when non-empty, makes Finish write the report as
	// <Dir>/<Name>.json (plus <Dir>/<Name>.trace.json when packet traces
	// were collected) through the internal/exp artifact writer.
	Dir string
	// Name is the artifact base name (default "telemetry").
	Name string
	// Sink, when non-nil, receives the finished report in addition to —
	// or instead of — the JSON artifacts.
	Sink func(*Report)
}

// Env carries the observed machine's geometry and state accessors. It is
// filled by machine.New; the collector never mutates anything it references.
type Env struct {
	Topo     *topo.Machine
	Channels []*fabric.Channel // global channel id -> channel
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
// boundaries only.
type Collector struct {
	env  Env
	opts Options

	maxVCs int

	window     uint64 // current window width in cycles
	nextSample uint64 // elapsed-cycle count of the next window boundary
	lastSample uint64 // elapsed-cycle count of the last sample taken
	partial    uint64 // width of the trailing partial window (0 = none)

	prevSent []uint64   // per-channel flit counter at the last sample
	series   [][]uint64 // per-channel flits per window

	// Per-(chip router, VC) occupancy, aggregated across nodes.
	occ      []*stats.Histogram
	occSum   []float64
	occCount []uint64
	occMax   []int

	// Grant counters, dense over every arbitration point.
	sa1  []uint64 // ((node*NumRouters+router)*MaxRouterPorts+port)*maxVCs + vc
	sa2  []uint64 // ((node*NumRouters+router)*MaxRouterPorts+outPort)*MaxRouterPorts + inPort
	adEg []uint64 // (node*NumChannelAdapters+adapter)*maxVCs + vc
	adIn []uint64 // (node*NumChannelAdapters+adapter)*maxVCs + vc

	traceBudget int
	traced      map[uint64]struct{}
	traces      []PacketTrace

	elapsed  uint64
	finished bool
	report   *Report
}

// NewCollector builds a collector for the given environment. machine.New
// calls this when Config.Telemetry is set; tests may build one directly.
func NewCollector(env Env, opts Options) *Collector {
	if opts.WindowCycles == 0 {
		opts.WindowCycles = DefaultWindowCycles
	}
	if opts.MaxWindows <= 0 {
		opts.MaxWindows = DefaultMaxWindows
	}
	if opts.MaxWindows%2 != 0 {
		opts.MaxWindows++
	}
	if opts.OccBins <= 0 {
		opts.OccBins = DefaultOccBins
	}
	if opts.Name == "" {
		opts.Name = "telemetry"
	}
	nodes := env.Topo.NumNodes()
	c := &Collector{
		env:         env,
		opts:        opts,
		maxVCs:      env.MaxVCs,
		window:      opts.WindowCycles,
		nextSample:  opts.WindowCycles,
		prevSent:    make([]uint64, len(env.Channels)),
		series:      make([][]uint64, len(env.Channels)),
		occ:         make([]*stats.Histogram, topo.NumRouters*env.MaxVCs),
		occSum:      make([]float64, topo.NumRouters*env.MaxVCs),
		occCount:    make([]uint64, topo.NumRouters*env.MaxVCs),
		occMax:      make([]int, topo.NumRouters*env.MaxVCs),
		sa1:         make([]uint64, nodes*topo.NumRouters*topo.MaxRouterPorts*env.MaxVCs),
		sa2:         make([]uint64, nodes*topo.NumRouters*topo.MaxRouterPorts*topo.MaxRouterPorts),
		adEg:        make([]uint64, nodes*topo.NumChannelAdapters*env.MaxVCs),
		adIn:        make([]uint64, nodes*topo.NumChannelAdapters*env.MaxVCs),
		traceBudget: opts.TracePackets,
		traced:      make(map[uint64]struct{}),
	}
	// Occupancy can exceed one VC buffer when several input ports of the
	// same router queue into the same VC index; size the range for the
	// worst case and let histogram clamping absorb the rest.
	occRange := float64(topo.MeshVCBuf * topo.MaxRouterPorts)
	for i := range c.occ {
		c.occ[i] = stats.NewHistogram(0, occRange, opts.OccBins)
	}
	return c
}

// Observe is the collector's engine observer (sim.Engine.Observe): the clock
// has arrived at now, so now cycles have elapsed. It closes the window when
// now has reached its boundary and returns the next boundary — which moves
// out as windows merge — as the next deadline.
func (c *Collector) Observe(now uint64) (next uint64) {
	if now >= c.nextSample {
		c.sample(now)
	}
	return c.nextSample
}

// sample closes the window ending at elapsed cycles.
func (c *Collector) sample(elapsed uint64) {
	for i, ch := range c.env.Channels {
		sent := ch.FlitsSent()
		c.series[i] = append(c.series[i], sent-c.prevSent[i])
		c.prevSent[i] = sent
	}
	c.scanOcc()
	c.lastSample = elapsed
	if len(c.series) > 0 && len(c.series[0]) >= c.opts.MaxWindows {
		c.mergeWindows()
	}
	c.nextSample = elapsed + c.window
}

// mergeWindows halves the series by summing adjacent windows and doubles the
// window width, keeping memory bounded for arbitrarily long runs. MaxWindows
// is even, so the halving is exact and window boundaries stay aligned.
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

func (c *Collector) scanOcc() {
	if c.env.ScanVCOccupancy == nil {
		return
	}
	c.env.ScanVCOccupancy(c.addOcc)
}

func (c *Collector) addOcc(router int, vc uint8, flits int) {
	i := router*c.maxVCs + int(vc)
	c.occ[i].Add(float64(flits))
	c.occSum[i] += float64(flits)
	c.occCount[i]++
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

// OnInject considers a freshly injected packet for lifecycle tracing.
// Multicast packets are skipped: multicast clones alias the original's trace
// buffer. A packet the caller already traced is adopted without consuming
// budget.
func (c *Collector) OnInject(p *packet.Packet, now uint64) {
	if p.MGroup >= 0 {
		return
	}
	if p.Trace == nil {
		if c.traceBudget <= 0 {
			return
		}
		c.traceBudget--
		p.StartTrace()
	}
	c.traced[p.ID] = struct{}{}
}

// OnDeliver captures the completed trace of a tracked packet before the
// machine recycles it.
func (c *Collector) OnDeliver(p *packet.Packet, now uint64) {
	if len(c.traced) == 0 {
		return
	}
	if _, ok := c.traced[p.ID]; !ok {
		return
	}
	delete(c.traced, p.ID)
	c.traces = append(c.traces, PacketTrace{
		ID:          p.ID,
		Src:         epName(p.Src),
		Dst:         epName(p.Dst),
		InjectedAt:  p.InjectedAt,
		DeliveredAt: p.DeliveredAt,
		Events:      append([]packet.TraceEvent(nil), p.Trace...),
	})
}

// Finish closes the trailing partial window, builds the report, and emits it
// through the configured sink and artifact directory. elapsed is the total
// cycles simulated (sim.Engine.Now()). Finish is idempotent.
func (c *Collector) Finish(elapsed uint64) error {
	if c.finished {
		return nil
	}
	c.finished = true
	if elapsed > c.lastSample {
		c.partial = elapsed - c.lastSample
		for i, ch := range c.env.Channels {
			sent := ch.FlitsSent()
			c.series[i] = append(c.series[i], sent-c.prevSent[i])
			c.prevSent[i] = sent
		}
		c.scanOcc()
	}
	c.elapsed = elapsed
	c.report = c.buildReport()
	if c.opts.Sink != nil {
		c.opts.Sink(c.report)
	}
	if c.opts.Dir != "" {
		if _, err := exp.WriteJSON(c.opts.Dir, c.opts.Name, c.report); err != nil {
			return err
		}
		if len(c.report.Traces) > 0 {
			trace := ChromeTrace(c.report.Traces, c.env.CyclePS)
			if _, err := exp.WriteJSON(c.opts.Dir, c.opts.Name+".trace", trace); err != nil {
				return err
			}
		}
	}
	return nil
}

// Report returns the finished report (building it on the fly if Finish has
// not run, for mid-run inspection).
func (c *Collector) Report() *Report {
	if c.report != nil {
		return c.report
	}
	return c.buildReport()
}
