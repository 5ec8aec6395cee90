package telemetry

import (
	"fmt"

	"anton2/internal/stats"
	"anton2/internal/topo"
)

// Report is the JSON-serializable summary a collector produces at Finish.
type Report struct {
	// Cycles is the total simulated cycle count the report covers.
	Cycles uint64 `json:"cycles"`
	// WindowCycles is the final sampling window width (it doubles from
	// Options.WindowCycles each time the window series was merged).
	WindowCycles uint64 `json:"window_cycles"`
	// LastWindowCycles is the width of the trailing partial window, 0 if
	// the run ended exactly on a boundary.
	LastWindowCycles uint64 `json:"last_window_cycles,omitempty"`
	NumNodes         int    `json:"num_nodes"`

	Channels    []ChannelStat `json:"channels"`
	VCOccupancy []OccStat     `json:"vc_occupancy"`
	Arbiters    []ArbStat     `json:"arbiters"`
	ArbSummary  []ArbSummary  `json:"arb_summary"`
	Traces      []PacketTrace `json:"traces,omitempty"`
	// Faults holds the fault-injection and reliable-link protocol event
	// counts by name; present only when the machine ran with a fault spec.
	Faults map[string]uint64 `json:"faults,omitempty"`
}

// ChannelStat summarizes one directed channel. Utilization is normalized to
// the channel's effective bandwidth (1.0 = every available flit slot used),
// so mesh and serialized torus channels are directly comparable.
type ChannelStat struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Node int    `json:"node"`
	// Adapter is the torus adapter index (direction x slice) for torus
	// channels, -1 for mesh channels.
	Adapter     int     `json:"adapter"`
	Torus       bool    `json:"torus"`
	RateMilli   uint64  `json:"rate_milli"`
	Flits       uint64  `json:"flits"`
	Packets     uint64  `json:"packets"`
	Utilization float64 `json:"utilization"`
	// WindowFlits is the per-window flit series (torus channels only, to
	// keep artifacts compact; the lifetime totals above cover every
	// channel).
	WindowFlits []uint64 `json:"window_flits,omitempty"`
}

// OccStat is the occupancy distribution of one (chip router, VC) pair,
// aggregated over nodes and the router's input ports, sampled once per
// window.
type OccStat struct {
	Router    int      `json:"router"`
	VC        uint8    `json:"vc"`
	Samples   uint64   `json:"samples"`
	MeanFlits float64  `json:"mean_flits"`
	MaxFlits  int      `json:"max_flits"`
	P50Flits  float64  `json:"p50_flits"`
	P99Flits  float64  `json:"p99_flits"`
	BinWidth  float64  `json:"bin_width"`
	Counts    []uint64 `json:"counts"`
}

// ArbStat is the grant distribution of one arbitration point, aggregated
// over nodes. Inputs are VCs for sa1 and the adapter paths, input ports for
// sa2. Jain is Jain's fairness index over the inputs that received at least
// one grant (1 = perfectly equal service).
type ArbStat struct {
	Kind    string   `json:"kind"` // sa1 | sa2 | adapter-egress | adapter-ingress
	Router  int      `json:"router,omitempty"`
	Port    int      `json:"port,omitempty"`
	Adapter string   `json:"adapter,omitempty"`
	Grants  []uint64 `json:"grants"`
	Total   uint64   `json:"total"`
	Jain    float64  `json:"jain"`
}

// ArbSummary aggregates fairness per arbiter kind across all active points.
type ArbSummary struct {
	Kind        string  `json:"kind"`
	Points      int     `json:"points"`
	TotalGrants uint64  `json:"total_grants"`
	MinJain     float64 `json:"min_jain"`
	MeanJain    float64 `json:"mean_jain"`
}

func epName(ne topo.NodeEp) string { return fmt.Sprintf("n%d:ep%d", ne.Node, ne.Ep) }

// utilization converts a flit count over a cycle span into a fraction of the
// channel's effective bandwidth.
func utilization(flits uint64, rateMilli, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	capacity := float64(cycles) * 1000 / float64(rateMilli)
	return float64(flits) / capacity
}

func (c *Collector) buildReport() *Report {
	r := &Report{
		Cycles:           c.elapsed,
		WindowCycles:     c.window,
		LastWindowCycles: c.partial,
		NumNodes:         c.env.Topo.NumNodes(),
		Traces:           c.traces,
	}
	c.channelStats(r)
	c.occStats(r)
	c.arbStats(r)
	if c.env.FaultCounters != nil {
		r.Faults = c.env.FaultCounters()
	}
	return r
}

func (c *Collector) channelStats(r *Report) {
	r.Channels = make([]ChannelStat, 0, len(c.env.Channels))
	for id, ch := range c.env.Channels {
		cs := ChannelStat{
			ID:          id,
			Name:        ch.Name,
			Adapter:     -1,
			RateMilli:   ch.RateMilli(),
			Flits:       ch.FlitsSent(),
			Packets:     ch.Pkts,
			Utilization: utilization(ch.FlitsSent(), ch.RateMilli(), c.elapsed),
		}
		if c.env.Topo.IsTorusChan(id) {
			node, ad := c.env.Topo.TorusChanOf(id)
			cs.Node, cs.Adapter, cs.Torus = node, ad.Index(), true
			cs.WindowFlits = c.series[id]
		} else {
			node, _ := c.env.Topo.IntraChanOf(id)
			cs.Node = node
		}
		r.Channels = append(r.Channels, cs)
	}
}

func (c *Collector) occStats(r *Report) {
	for ri := 0; ri < topo.NumRouters; ri++ {
		for vc := 0; vc < c.maxVCs; vc++ {
			i := ri*c.maxVCs + vc
			h := c.occ[i]
			if h.Total == 0 {
				continue
			}
			r.VCOccupancy = append(r.VCOccupancy, OccStat{
				Router:    ri,
				VC:        uint8(vc),
				Samples:   h.Total,
				MeanFlits: c.occSum[i] / float64(c.occCount[i]),
				MaxFlits:  c.occMax[i],
				P50Flits:  h.Quantile(0.5),
				P99Flits:  h.Quantile(0.99),
				BinWidth:  (h.Max - h.Min) / float64(len(h.Counts)),
				Counts:    h.Counts,
			})
		}
	}
}

// jainNonzero is Jain's index over the inputs that received any grants.
func jainNonzero(grants []uint64) float64 {
	xs := make([]float64, 0, len(grants))
	for _, g := range grants {
		if g > 0 {
			xs = append(xs, float64(g))
		}
	}
	return stats.JainIndex(xs)
}

func (c *Collector) arbStats(r *Report) {
	nodes := c.env.Topo.NumNodes()
	add := func(st ArbStat) {
		for _, g := range st.Grants {
			st.Total += g
		}
		if st.Total == 0 {
			return
		}
		st.Jain = jainNonzero(st.Grants)
		r.Arbiters = append(r.Arbiters, st)
	}

	// SA1: per (router, input port), grants over VCs, summed across nodes.
	for ri := 0; ri < topo.NumRouters; ri++ {
		for pi := 0; pi < topo.MaxRouterPorts; pi++ {
			grants := make([]uint64, c.maxVCs)
			for n := 0; n < nodes; n++ {
				base := ((n*topo.NumRouters+ri)*topo.MaxRouterPorts + pi) * c.maxVCs
				for vc := 0; vc < c.maxVCs; vc++ {
					grants[vc] += c.sa1[base+vc]
				}
			}
			add(ArbStat{Kind: "sa1", Router: ri, Port: pi, Grants: grants})
		}
	}
	// SA2: per (router, output port), grants over input ports.
	for ri := 0; ri < topo.NumRouters; ri++ {
		for po := 0; po < topo.MaxRouterPorts; po++ {
			grants := make([]uint64, topo.MaxRouterPorts)
			for n := 0; n < nodes; n++ {
				base := ((n*topo.NumRouters+ri)*topo.MaxRouterPorts + po) * topo.MaxRouterPorts
				for pi := 0; pi < topo.MaxRouterPorts; pi++ {
					grants[pi] += c.sa2[base+pi]
				}
			}
			add(ArbStat{Kind: "sa2", Router: ri, Port: po, Grants: grants})
		}
	}
	// Adapter paths: per adapter (direction x slice), grants over VCs.
	for ai := 0; ai < topo.NumChannelAdapters; ai++ {
		eg := make([]uint64, c.maxVCs)
		in := make([]uint64, c.maxVCs)
		for n := 0; n < nodes; n++ {
			base := (n*topo.NumChannelAdapters + ai) * c.maxVCs
			for vc := 0; vc < c.maxVCs; vc++ {
				eg[vc] += c.adEg[base+vc]
				in[vc] += c.adIn[base+vc]
			}
		}
		name := topo.AdapterByIndex(ai).String()
		add(ArbStat{Kind: "adapter-egress", Adapter: name, Grants: eg})
		add(ArbStat{Kind: "adapter-ingress", Adapter: name, Grants: in})
	}

	for _, kind := range []string{"sa1", "sa2", "adapter-egress", "adapter-ingress"} {
		s := ArbSummary{Kind: kind, MinJain: 1}
		var jainSum float64
		for _, st := range r.Arbiters {
			if st.Kind != kind {
				continue
			}
			s.Points++
			s.TotalGrants += st.Total
			jainSum += st.Jain
			if st.Jain < s.MinJain {
				s.MinJain = st.Jain
			}
		}
		if s.Points > 0 {
			s.MeanJain = jainSum / float64(s.Points)
		} else {
			s.MeanJain, s.MinJain = 1, 1
		}
		r.ArbSummary = append(r.ArbSummary, s)
	}
}

// WindowFlitTotal sums a channel's window series (including the trailing
// partial window); it must equal the channel's lifetime flit count when the
// report was finalized after the run.
func (cs *ChannelStat) WindowFlitTotal() uint64 {
	var total uint64
	for _, f := range cs.WindowFlits {
		total += f
	}
	return total
}
