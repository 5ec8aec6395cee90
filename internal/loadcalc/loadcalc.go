// Package loadcalc computes expected resource loads for known traffic
// patterns analytically, over every route of the pattern (Section 3.1). The
// loads feed two consumers: the inverse-weighted arbiter tables (service
// proportional to load achieves equality of service) and the throughput
// normalization of the measurement harness (throughput 1.0 = full
// utilization of the busiest torus channel).
//
// All of the paper's measurement patterns are node-symmetric, so loads are
// computed once for routes sourced at node 0 and folded over the node index:
// by translation invariance, the per-node load on a resource equals the sum
// over node-0-sourced routes of that resource's traversals at any node.
//
// Compute composes each route from two memoized segments, each a list of
// int32 indices into one flat accumulator array, walked with route.Traverse
// (the step route.Walk takes). The prefix runs from the source endpoint
// through the torus hop that arrives at the destination node; nothing before
// that arrival depends on the destination endpoint, so it is walked once per
// (source endpoint, destination node, routing choice). The sink runs from
// that arrival's ingress to endpoint delivery and is tabulated once per
// (routing state on arrival, destination endpoint). A route on the source's
// own node is walked whole.
//
// The fold-order rule keeps the loads bit-identical to walking every route:
// routes are replayed one at a time in enumeration order (source, flow,
// choice), each adding its weight once per traversal to every accumulator it
// touches. One route adds one constant weight, so the order of its adds does
// not matter, and every accumulator folds the same addends in the same
// order. Weighting a segment by how many routes share it would re-associate
// the sums and move loads in the last ulp.
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
	t := newTables(cfg, class)
	l := &Loads{Sources: len(sources)}
	var st route.State
	for _, srcEp := range sources {
		fl := flows(srcEp)
		var total float64
		for _, f := range fl {
			total += f.Frac
		}
		if total < 0.999999 || total > 1.000001 {
			panic(fmt.Sprintf("loadcalc: flow fractions for source E%d sum to %g", srcEp, total))
		}
		t.newSource(srcEp)
		for _, f := range fl {
			for j, wc := range t.choicesTo(f.Dst.Node) {
				w := f.Frac * wc.Weight
				if f.Dst.Node == 0 {
					// A route on the source's node heads for its endpoint
					// from the first hop: walk it whole.
					t.whole, _ = t.trace(t.whole[:0], &st, f.Dst, wc.Choices)
					t.add(t.whole, w)
					continue
				}
				p := t.prefix(f.Dst, j)
				t.add(t.preIdx[p.lo:p.hi], w)
				for range p.torus {
					l.MeanTorusHops += w / float64(l.Sources)
				}
				t.add(t.sink(p.row, f.Dst), w)
			}
		}
	}
	t.fold(l)
	return l
}

// span is a segment: the half-open range [lo, hi) of an index list.
type span struct{ lo, hi int32 }

// prefix is a memoized route prefix: its accumulator indices, its torus hop
// count and the sink-table row of the state it arrives in.
type prefix struct {
	span
	torus, row int32
}

// tables is Compute's working state. acc holds the per-resource Loads
// fields, flat and row-major, in the order Chan, Torus, SA2, SA1, AdEg,
// AdIn; a segment is a list of int32 indices into it.
type tables struct {
	cfg   *route.Config
	chip  *topo.Chip
	class route.Class
	maxVC int32
	// vc0 holds, per channel group, the physical VC of the class's VC 0.
	vc0 [2]int32
	// Offsets of the Loads fields after Chan in acc.
	torus, sa2, sa1, adEg, adIn int32
	acc                         []float64

	// choices holds each destination node's routing choices, enumerated on
	// first use (the source node is always node 0).
	choices [][]route.WeightedChoice

	// The prefixes of the current source: first holds, per destination
	// node, the index in pre of its first choice's prefix, or -1 until the
	// node's prefixes are walked.
	src    int
	first  []int32
	pre    []prefix
	preIdx []int32

	// The sink table: rows interns each arrival state by stateKey, arrivals
	// holds a row's state before ingress, and sinks[row*NumEndpoints+ep] is
	// the segment from that arrival to endpoint ep (zero until walked).
	rows     map[uint64]int32
	arrivals []route.State
	sinks    []span
	sinkIdx  []int32

	whole []int32 // the indices of a route walked whole
}

func newTables(cfg *route.Config, class route.Class) *tables {
	m := cfg.Machine
	t := &tables{
		cfg:     cfg,
		chip:    m.Chip,
		class:   class,
		maxVC:   int32(route.MaxTotalVCs(cfg.Scheme)),
		choices: make([][]route.WeightedChoice, m.NumNodes()),
		first:   make([]int32, m.NumNodes()),
		rows:    map[uint64]int32{},
	}
	for g := range t.vc0 {
		t.vc0[g] = int32(route.PhysVC(cfg.Scheme, topo.Group(g), class, 0))
	}
	t.torus = int32(m.NumIntraChans())
	t.sa2 = t.torus + topo.NumChannelAdapters
	t.sa1 = t.sa2 + topo.NumRouters*topo.MaxRouterPorts*topo.MaxRouterPorts
	t.adEg = t.sa1 + topo.NumRouters*topo.MaxRouterPorts*t.maxVC
	t.adIn = t.adEg + topo.NumChannelAdapters*t.maxVC
	t.acc = make([]float64, t.adIn+topo.NumChannelAdapters*t.maxVC)
	return t
}

// newSource drops the previous source's prefixes.
func (t *tables) newSource(srcEp int) {
	t.src = srcEp
	for i := range t.first {
		t.first[i] = -1
	}
	t.pre, t.preIdx = t.pre[:0], t.preIdx[:0]
}

func (t *tables) choicesTo(node int) []route.WeightedChoice {
	if t.choices[node] == nil {
		shape := t.cfg.Machine.Shape
		t.choices[node] = t.cfg.Scheme.Enumerate(shape, shape.Coord(0), shape.Coord(node))
	}
	return t.choices[node]
}

// add is the replay: one route's weight onto every accumulator it touches.
func (t *tables) add(idx []int32, w float64) {
	acc := t.acc
	for _, i := range idx {
		acc[i] += w
	}
}

// prefix returns the current source's prefix toward dst's node under the
// node's j-th routing choice, walking all of the node's choices on first use.
func (t *tables) prefix(dst topo.NodeEp, j int) prefix {
	first := t.first[dst.Node]
	if first < 0 {
		first = int32(len(t.pre))
		t.first[dst.Node] = first
		var st route.State
		for _, wc := range t.choices[dst.Node] {
			lo := int32(len(t.preIdx))
			var torus int32
			t.preIdx, torus = t.trace(t.preIdx, &st, dst, wc.Choices)
			t.pre = append(t.pre, prefix{span{lo, int32(len(t.preIdx))}, torus, t.row(&st)})
		}
	}
	return t.pre[int(first)+j]
}

// row interns an arrival state, giving a new one a row of empty sinks.
func (t *tables) row(st *route.State) int32 {
	k := stateKey(st)
	r, ok := t.rows[k]
	if !ok {
		r = int32(len(t.arrivals))
		t.rows[k] = r
		t.arrivals = append(t.arrivals, *st)
		t.sinks = append(t.sinks, make([]span, topo.NumEndpoints)...)
	}
	return r
}

// sink returns the segment of a route that arrived at dst's node in the state
// of row and is bound for dst's endpoint, walking it on first use. Arriving
// completes every dimension, so the segment does not depend on which node
// that is.
func (t *tables) sink(row int32, dst topo.NodeEp) []int32 {
	s := &t.sinks[int(row)*topo.NumEndpoints+dst.Ep]
	if s.hi == 0 {
		st := t.arrivals[row]
		lo := int32(len(t.sinkIdx))
		ad := st.EgressAdapter()
		at := route.Ingress(t.cfg, &st, dst, dst.Node)
		t.sinkIdx = t.ingress(t.sinkIdx, ad, at)
		t.sinkIdx, _ = t.walk(t.sinkIdx, &st, dst, at, -1)
		*s = span{lo, int32(len(t.sinkIdx))}
	}
	return t.sinkIdx[s.lo:s.hi]
}

// trace appends the route of choice c from the current source endpoint
// toward dst, up to delivery on node 0 or the torus hop arriving at dst's
// node, and returns its torus hop count; st is left in the route's state
// there.
func (t *tables) trace(idx []int32, st *route.State, dst topo.NodeEp, c route.Choices) ([]int32, int32) {
	var at route.Leg
	*st, at = route.Start(t.cfg, topo.NodeEp{Ep: t.src}, dst, c.Order, c.Slice, c.Ties, t.class)
	return t.walk(append(idx, int32(at.In)), st, dst, at, dst.Node)
}

// walk appends the accumulator indices of a route from at on: per router
// traversal its output channel and the SA1 and SA2 inputs it loads, per torus
// hop the adapter egress arbiter and the torus channel, then the ingress. It
// stops at endpoint delivery or, before ingress, at the torus hop arriving at
// node stop, and returns the torus hops it took.
func (t *tables) walk(idx []int32, st *route.State, dst topo.NodeEp, at route.Leg, stop int) ([]int32, int32) {
	var torus int32
	for {
		s := route.Traverse(t.cfg, st, dst, at, stop)
		in := t.chip.InPortOf(at.In)
		inVC := t.vc0[t.chip.IntraChans[at.In].Group] + int32(at.VC)
		rp := int32(in.Router * topo.MaxRouterPorts)
		idx = append(idx, int32(s.Out.OutChan),
			t.sa1+(rp+int32(in.Port))*t.maxVC+inVC,
			t.sa2+(rp+int32(s.Port))*topo.MaxRouterPorts+int32(in.Port))
		switch s.Out.Kind {
		case topo.PortEndpoint:
			return idx, torus
		case topo.PortAdapter:
			// The egress queue is indexed by the arrival (pre-dateline) VC.
			ad := s.Out.Adapter
			egVC := t.vc0[topo.GroupT] + int32(s.VC)
			idx = append(idx, t.adEg+int32(ad.Index())*t.maxVC+egVC, t.torus+int32(ad.Index()))
			torus++
			if s.Next.Node == stop {
				return idx, torus
			}
			idx = t.ingress(idx, ad, s.Next)
		}
		at = s.Next
	}
}

// ingress appends the torus arrival from egress adapter ad that starts leg
// at: the ingress arbiter input, kept under the sending adapter and the torus
// VC (the leg's), and the leg's channel into its router.
func (t *tables) ingress(idx []int32, ad topo.AdapterID, at route.Leg) []int32 {
	return append(idx, t.adIn+int32(ad.Index())*t.maxVC+t.vc0[topo.GroupT]+int32(at.VC), int32(at.In))
}

// fold hands acc to l: Chan, SA1, AdEg and AdIn become windows of it, the
// fixed-size Torus and SA2 copies.
func (t *tables) fold(l *Loads) {
	window := func(lo, n int32) []float64 { return t.acc[lo : lo+n : lo+n] }
	l.Chan = window(0, t.torus)
	copy(l.Torus[:], t.acc[t.torus:t.sa2])
	for r := range l.SA2 {
		for o := range l.SA2[r] {
			copy(l.SA2[r][o][:], window(t.sa2+int32(r*topo.MaxRouterPorts+o)*topo.MaxRouterPorts, topo.MaxRouterPorts))
		}
	}
	for r := range l.SA1 {
		for p := range l.SA1[r] {
			l.SA1[r][p] = window(t.sa1+int32(r*topo.MaxRouterPorts+p)*t.maxVC, t.maxVC)
		}
	}
	for a := range l.AdEg {
		l.AdEg[a] = window(t.adEg+int32(a)*t.maxVC, t.maxVC)
		l.AdIn[a] = window(t.adIn+int32(a)*t.maxVC, t.maxVC)
	}
}

// stateKey packs every field of a routing state into one word, so arrival
// states are interned without a struct-keyed map: the VCs, slice, direction
// and dimension index a byte each, class and mode a nibble each, the
// dimension order and tie signs two bits per dimension, the flags a bit each.
func stateKey(st *route.State) uint64 {
	k := uint64(st.MVC) | uint64(st.TVC)<<8 | uint64(st.Slice)<<16 | uint64(st.Dir)<<24 |
		uint64(st.DimIdx)<<32 | uint64(st.Class&15)<<40 | uint64(st.Mode&15)<<44
	for d := range topo.NumDims {
		k |= uint64(st.DimOrder[d]&3)<<(48+2*d) | uint64(uint8(st.Ties[d])&3)<<(54+2*d)
	}
	for i, b := range [...]bool{st.Crossed, st.Traveled, st.ViaSkip, st.SkipExit} {
		if b {
			k |= 1 << (60 + i)
		}
	}
	return k
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
