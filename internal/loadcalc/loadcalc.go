// Package loadcalc computes expected resource loads for known traffic
// patterns by analytic route enumeration (Section 3.1). The loads feed two
// consumers: the inverse-weighted arbiter tables (service proportional to
// load achieves equality of service) and the throughput normalization of the
// measurement harness (throughput 1.0 = full utilization of the busiest
// torus channel).
//
// All of the paper's measurement patterns are node-symmetric, so loads are
// computed once for routes sourced at node 0 and folded over the node index:
// by translation invariance, the per-node load on a resource equals the sum
// over node-0-sourced routes of that resource's traversals at any node.
package loadcalc

import (
	"fmt"

	"anton2/internal/arbiter"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// Flow is one element of a source's destination distribution: a fraction of
// the source's packets bound for a destination endpoint.
type Flow struct {
	Dst  topo.NodeEp
	Frac float64
}

// FlowFunc enumerates the destination distribution of a node-0 source
// endpoint. Fractions must sum to 1 per source.
type FlowFunc func(srcEp int) []Flow

// Loads holds the expected per-resource loads of one traffic pattern, in
// units of traversals per "round" in which every source endpoint on every
// node injects one packet.
type Loads struct {
	Cfg *route.Config

	// Chan is indexed by chip channel id (per-node intra channels).
	Chan []float64
	// Torus is indexed by adapter index (direction x slice).
	Torus [topo.NumChannelAdapters]float64

	// SA2 is the switch-output arbiter load: [router][outPort][inPort].
	SA2 [topo.NumRouters][topo.MaxRouterPorts][topo.MaxRouterPorts]float64
	// SA1 is the input VC arbiter load: [router][inPort][physVC].
	SA1 [topo.NumRouters][topo.MaxRouterPorts][]float64
	// AdEg / AdIn are the channel-adapter egress (mesh-to-torus) and
	// ingress (torus-to-router) arbiter loads: [adapter][physVC].
	AdEg [topo.NumChannelAdapters][]float64
	AdIn [topo.NumChannelAdapters][]float64

	// MeanTorusHops is the expected inter-node hop count per packet.
	MeanTorusHops float64
	// Sources is the number of source endpoints per node.
	Sources int
}

// Compute enumerates all routes from the given node-0 source endpoints,
// weighting each destination by its flow fraction and each routing choice by
// its randomization probability, and folds the traversal counts by node.
// class selects the traffic class whose VC indices are recorded.
func Compute(cfg *route.Config, sources []int, flows FlowFunc, class route.Class) *Loads {
	m := cfg.Machine
	l := &Loads{
		Cfg:     cfg,
		Chan:    make([]float64, m.NumIntraChans()),
		Sources: len(sources),
	}
	maxVC := route.MaxTotalVCs(cfg.Scheme)
	for r := 0; r < topo.NumRouters; r++ {
		for p := 0; p < topo.MaxRouterPorts; p++ {
			l.SA1[r][p] = make([]float64, maxVC)
		}
	}
	for a := 0; a < topo.NumChannelAdapters; a++ {
		l.AdEg[a] = make([]float64, maxVC)
		l.AdIn[a] = make([]float64, maxVC)
	}

	chip := m.Chip
	for _, srcEp := range sources {
		src := topo.NodeEp{Node: 0, Ep: srcEp}
		fl := flows(srcEp)
		var total float64
		for _, f := range fl {
			total += f.Frac
		}
		if total < 0.999999 || total > 1.000001 {
			panic(fmt.Sprintf("loadcalc: flow fractions for source E%d sum to %g", srcEp, total))
		}
		for _, f := range fl {
			srcC := m.Shape.Coord(0)
			dstC := m.Shape.Coord(f.Dst.Node)
			for _, wc := range cfg.Scheme.Enumerate(m.Shape, srcC, dstC) {
				w := f.Frac * wc.Weight
				hops := route.Walk(cfg, src, f.Dst, wc.Order, wc.Slice, wc.Ties, class)
				l.accumulate(chip, hops, w, class)
			}
		}
	}
	return l
}

func (l *Loads) accumulate(chip *topo.Chip, hops []route.Hop, w float64, class route.Class) {
	m := l.Cfg.Machine
	for i, h := range hops {
		if m.IsTorusChan(h.Chan) {
			_, ad := m.TorusChanOf(h.Chan)
			l.Torus[ad.Index()] += w
			l.MeanTorusHops += w / float64(l.Sources)
		} else {
			_, ch := m.IntraChanOf(h.Chan)
			l.Chan[ch.ID] += w
		}
		if i == 0 {
			continue
		}
		l.transition(chip, hops[i-1], h, w, class)
	}
}

// transition records the arbiter-input load of moving from channel a to
// channel b at the component between them.
func (l *Loads) transition(chip *topo.Chip, a, b route.Hop, w float64, class route.Class) {
	m := l.Cfg.Machine
	aTorus, bTorus := m.IsTorusChan(a.Chan), m.IsTorusChan(b.Chan)
	switch {
	case aTorus && !bTorus:
		// Torus arrival -> channel-adapter ingress arbiter.
		_, ad := m.TorusChanOf(a.Chan)
		vc := route.PhysVC(l.Cfg.Scheme, topo.GroupT, class, a.VC)
		l.AdIn[ad.Index()][vc] += w
	case !aTorus && bTorus:
		// Router-to-adapter channel -> adapter egress arbiter. The
		// egress queue is indexed by the arrival (pre-dateline) VC.
		_, bad := m.TorusChanOf(b.Chan)
		vc := route.PhysVC(l.Cfg.Scheme, topo.GroupT, class, a.VC)
		l.AdEg[bad.Index()][vc] += w
	case !aTorus && !bTorus:
		// Router transition: SA1 (input port, VC) and SA2 (output
		// port, input port).
		_, ach := m.IntraChanOf(a.Chan)
		_, bch := m.IntraChanOf(b.Chan)
		in := chip.InPortOf(ach.ID)
		out := chip.OutPortOf(bch.ID)
		if in.Router < 0 || out.Router < 0 || in.Router != out.Router {
			panic("loadcalc: intra transition does not cross a router")
		}
		vc := route.PhysVC(l.Cfg.Scheme, ach.Group, class, a.VC)
		l.SA1[in.Router][in.Port][vc] += w
		l.SA2[in.Router][out.Port][in.Port] += w
	default:
		panic("loadcalc: torus-to-torus transition is impossible")
	}
}

// MaxTorusLoad returns the load on the busiest torus channel, in traversals
// per round.
func (l *Loads) MaxTorusLoad() float64 {
	max := 0.0
	for _, v := range l.Torus {
		if v > max {
			max = v
		}
	}
	return max
}

// SaturationRate returns the per-source injection rate (packets per cycle
// per source endpoint) at which the busiest torus channel reaches 100%
// utilization, assuming single-flit packets. Throughput measurements are
// normalized against this rate.
func (l *Loads) SaturationRate() float64 {
	return SaturationRateAt(l.MaxTorusLoad())
}

// SaturationRateAt is the one capacity expression: the per-source injection
// rate at which a torus channel carrying maxTorusLoad traversals per round
// is fully utilized (its capacity is 1000/topo.TorusRateMilli flits per
// cycle), or 0 when nothing loads the torus.
func SaturationRateAt(maxTorusLoad float64) float64 {
	if maxTorusLoad == 0 {
		return 0
	}
	return 1000.0 / topo.TorusRateMilli / maxTorusLoad
}

// MaxMeshLoad returns the heaviest mesh (M-group or T-group intra) channel
// load, along with its chip channel id.
func (l *Loads) MaxMeshLoad() (float64, int) {
	max, id := 0.0, -1
	for i, v := range l.Chan {
		if v > max {
			max, id = v, i
		}
	}
	return max, id
}

// WeightSet is a full set of inverse-weight tables for every arbiter in one
// node (shared by all nodes under node symmetry), over up to
// arbiter.NumPatterns traffic patterns.
type WeightSet struct {
	// SA2[router][outPort][inPort][pattern]
	SA2 [topo.NumRouters][topo.MaxRouterPorts][][arbiter.NumPatterns]uint32
	// SA1[router][inPort][vc][pattern]
	SA1 [topo.NumRouters][topo.MaxRouterPorts][][arbiter.NumPatterns]uint32
	// AdEg / AdIn [adapter][vc][pattern]
	AdEg [topo.NumChannelAdapters][][arbiter.NumPatterns]uint32
	AdIn [topo.NumChannelAdapters][][arbiter.NumPatterns]uint32
}

// BuildWeights converts one or two patterns' loads into inverse-weight
// tables with a shared scale per arbiter.
func BuildWeights(patterns ...*Loads) *WeightSet {
	if len(patterns) == 0 || len(patterns) > arbiter.NumPatterns {
		panic("loadcalc: BuildWeights takes 1..NumPatterns load sets")
	}
	ws := &WeightSet{}
	gather := func(get func(p *Loads) []float64) [][arbiter.NumPatterns]uint32 {
		loads := make([][]float64, len(patterns))
		for n, p := range patterns {
			loads[n] = get(p)
		}
		return arbiter.JointWeights(loads)
	}
	for r := 0; r < topo.NumRouters; r++ {
		for po := 0; po < topo.MaxRouterPorts; po++ {
			r, po := r, po
			ws.SA2[r][po] = gather(func(p *Loads) []float64 { return p.SA2[r][po][:] })
			ws.SA1[r][po] = gather(func(p *Loads) []float64 { return p.SA1[r][po] })
		}
	}
	for a := 0; a < topo.NumChannelAdapters; a++ {
		a := a
		ws.AdEg[a] = gather(func(p *Loads) []float64 { return p.AdEg[a] })
		ws.AdIn[a] = gather(func(p *Loads) []float64 { return p.AdIn[a] })
	}
	return ws
}
