// Package area provides a parametric silicon-area model of the Anton 2
// network components, calibrated to the die-area breakdown the paper reports
// (Tables 1 and 2). Scaling laws tie each category to its dominant
// structure — queue area to VC count and buffer depth, arbiter area to
// accumulator and weight storage, multicast area to table entries — so the
// model supports the design ablations the paper argues from (notably the
// one-third T-group VC reduction of Section 2.5).
package area

import (
	"anton2/internal/route"
	"anton2/internal/topo"
)

// Component indexes the three network component types of Table 1.
type Component int

// Network component types.
const (
	Router Component = iota
	EndpointAdapter
	ChannelAdapter
	NumComponents
)

func (c Component) String() string {
	switch c {
	case Router:
		return "Router"
	case EndpointAdapter:
		return "Endpoint adapter"
	default:
		return "Channel adapter"
	}
}

// Count returns the per-ASIC instance count of a component type (Table 1).
func (c Component) Count() int {
	switch c {
	case Router:
		return topo.NumRouters
	case EndpointAdapter:
		return topo.NumEndpoints
	default:
		return topo.NumChannelAdapters
	}
}

// Category indexes the area categories of Table 2.
type Category int

// Area categories.
const (
	Queues Category = iota
	Reduction
	Link
	ConfigRegs
	Debug
	Misc
	Multicast
	Arbiters
	NumCategories
)

func (c Category) String() string {
	return [...]string{"Queues", "Reduction", "Link", "Configuration", "Debug", "Miscellaneous", "Multicast", "Arbiters"}[c]
}

// Config holds the design parameters the model scales with.
type Config struct {
	// Scheme determines per-group VC counts.
	Scheme route.Scheme
	// MeshVCBuf / TorusVCBuf are per-VC buffer depths in flits.
	MeshVCBuf, TorusVCBuf int
	// MulticastEntries is the per-adapter multicast table size.
	MulticastEntries int
	// Patterns is the number of weight sets per inverse-weighted arbiter.
	Patterns int
	// WeightBits is M, the inverse-weight width.
	WeightBits int
}

// Default returns the shipped Anton 2 configuration.
func Default() Config {
	return Config{
		Scheme:           route.AntonScheme{},
		MeshVCBuf:        topo.MeshVCBuf,
		TorusVCBuf:       topo.TorusVCBuf,
		MulticastEntries: 256,
		Patterns:         2,
		WeightBits:       5,
	}
}

// Reference die-area calibration: Table 1 reports the network at 9.2% of
// the ASIC (3.4 + 1.1 + 4.7), and Table 2 gives the per-component,
// per-category split of the network area (in % of network area).
var table2Reference = [NumComponents][NumCategories]float64{
	Router:          {21.2, 0, 0, 3.3, 3.0, 4.3, 0, 5.2},
	EndpointAdapter: {2.7, 0, 0, 2.5, 2.5, 1.0, 3.2, 0.05},
	ChannelAdapter:  {22.7, 9.6, 8.9, 2.8, 2.3, 2.0, 2.5, 0.2},
}

// networkDieFraction is the network's share of total die area at the
// reference configuration.
const networkDieFraction = 0.092

// Breakdown is an evaluated area model, in arbitrary area units chosen so
// the reference configuration's network totals 100.
type Breakdown struct {
	// ByComponent[c][k] is the area of category k inside one *type* of
	// component, summed over all instances of that type.
	ByComponent [NumComponents][NumCategories]float64
}

// scale factors relating a configuration's structures to the reference.
func scales(c Config) (queueRouter, queueEndpoint, queueChannel, arb, mcast float64) {
	ref := Default()
	// Queue bits per component type: sum over ports of VCs x depth.
	qr := func(c Config) float64 {
		mesh := float64(route.TotalVCs(c.Scheme, topo.GroupM) * c.MeshVCBuf)
		torus := float64(route.TotalVCs(c.Scheme, topo.GroupT) * c.MeshVCBuf)
		// Average router port mix: count M-group vs T-group input
		// ports over the chip.
		var mPorts, tPorts int
		chip := topo.DefaultChip()
		for ri := range chip.Routers {
			for pi := range chip.Routers[ri].Ports {
				p := &chip.Routers[ri].Ports[pi]
				g := chip.IntraChans[p.InChan].Group
				if g == topo.GroupT {
					tPorts++
				} else {
					mPorts++
				}
			}
		}
		return float64(mPorts)*mesh + float64(tPorts)*torus
	}
	qe := func(c Config) float64 {
		// Endpoint adapters: one VC per traffic class.
		return float64(route.NumClasses * c.MeshVCBuf)
	}
	qc := func(c Config) float64 {
		// Channel adapters: T-group VCs on both the mesh side and the
		// serial side (deep buffers cover the torus round trip).
		t := route.TotalVCs(c.Scheme, topo.GroupT)
		return float64(t*c.MeshVCBuf + t*c.TorusVCBuf)
	}
	ar := func(c Config) float64 {
		// Accumulators (M+1 bits), weight storage (Patterns x M bits)
		// per input, plus the prioritized arbiter (~quarter of total,
		// Section 4.4).
		storage := float64(c.WeightBits+1) + float64(c.Patterns*c.WeightBits)
		return storage + storage/3
	}
	mc := func(c Config) float64 { return float64(c.MulticastEntries) }
	return qr(c) / qr(ref), qe(c) / qe(ref), qc(c) / qc(ref), ar(c) / ar(ref), mc(c) / mc(ref)
}

// Compute evaluates the model.
func Compute(c Config) *Breakdown {
	if c.Scheme == nil {
		c.Scheme = route.AntonScheme{}
	}
	qr, qe, qc, arb, mc := scales(c)
	b := &Breakdown{ByComponent: table2Reference}
	b.ByComponent[Router][Queues] *= qr
	b.ByComponent[EndpointAdapter][Queues] *= qe
	b.ByComponent[ChannelAdapter][Queues] *= qc
	for comp := Component(0); comp < NumComponents; comp++ {
		b.ByComponent[comp][Arbiters] *= arb
		b.ByComponent[comp][Multicast] *= mc
	}
	return b
}

// ComponentTotal returns a component type's total area units.
func (b *Breakdown) ComponentTotal(c Component) float64 {
	var sum float64
	for k := Category(0); k < NumCategories; k++ {
		sum += b.ByComponent[c][k]
	}
	return sum
}

// NetworkTotal returns total network area units.
func (b *Breakdown) NetworkTotal() float64 {
	var sum float64
	for c := Component(0); c < NumComponents; c++ {
		sum += b.ComponentTotal(c)
	}
	return sum
}

// referenceDieArea is the whole-die area in model units: the reference
// network is 100 units and occupies 9.2% of the die.
const referenceDieArea = 100 / networkDieFraction

// Table1 returns each component type's share of total die area, in percent
// (the paper's Table 1 reports 3.4 / 1.1 / 4.7).
func (b *Breakdown) Table1() [NumComponents]float64 {
	var out [NumComponents]float64
	for c := Component(0); c < NumComponents; c++ {
		out[c] = 100 * b.ComponentTotal(c) / referenceDieArea
	}
	return out
}

// Table2 returns the per-component and total category shares of network
// area, in percent of the *current* network area (the paper's Table 2).
func (b *Breakdown) Table2() (byComp [NumComponents][NumCategories]float64, total [NumCategories]float64) {
	net := b.NetworkTotal()
	for c := Component(0); c < NumComponents; c++ {
		for k := Category(0); k < NumCategories; k++ {
			pct := 100 * b.ByComponent[c][k] / net
			byComp[c][k] = pct
			total[k] += pct
		}
	}
	return byComp, total
}
