// Package area provides a parametric silicon-area model of the Anton 2
// network components, calibrated to the die-area breakdown the paper reports
// (Tables 1 and 2). Queue area scales with each port's VC count and buffer
// depth; every other category is the shipped design's. That prices the design
// ablation the paper argues from — the one-third T-group VC reduction of
// Section 2.5 — for any routing scheme's VC provisioning.
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

// queueBits returns the queue storage, VCs x depth summed over ports, of the
// routers and of the channel adapters under scheme s. Endpoint adapters hold
// one VC per traffic class whatever the scheme.
func queueBits(s route.Scheme) (routers, channelAdapters float64) {
	mesh := float64(route.TotalVCs(s, topo.GroupM) * topo.MeshVCBuf)
	torus := float64(route.TotalVCs(s, topo.GroupT) * topo.MeshVCBuf)
	// Average router port mix: count M-group vs T-group input ports over
	// the chip.
	var mPorts, tPorts int
	chip := topo.DefaultChip()
	for ri := range chip.Routers {
		for pi := range chip.Routers[ri].Ports {
			p := &chip.Routers[ri].Ports[pi]
			if chip.IntraChans[p.InChan].Group == topo.GroupT {
				tPorts++
			} else {
				mPorts++
			}
		}
	}
	// Channel adapters: T-group VCs on both the mesh side and the serial
	// side (deep buffers cover the torus round trip).
	t := route.TotalVCs(s, topo.GroupT)
	return float64(mPorts)*mesh + float64(tPorts)*torus, float64(t*topo.MeshVCBuf + t*topo.TorusVCBuf)
}

// Compute evaluates the model for a routing scheme's VC provisioning.
func Compute(s route.Scheme) *Breakdown {
	qr, qc := queueBits(s)
	refR, refC := queueBits(route.AntonScheme{})
	b := &Breakdown{ByComponent: table2Reference}
	b.ByComponent[Router][Queues] *= qr / refR
	b.ByComponent[ChannelAdapter][Queues] *= qc / refC
	return b
}

// RatioVsAnton prices a scheme's VC provisioning against the paper's scheme:
// the ratio of the two network areas.
func RatioVsAnton(s route.Scheme) float64 {
	return Compute(s).NetworkTotal() / Compute(route.AntonScheme{}).NetworkTotal()
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
