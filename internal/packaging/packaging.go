// Package packaging models the physical construction of an Anton 2 machine
// (Figure 2): nodecards mated to 4x4x1 backplanes, eight backplanes per
// rack, and cabled connections between backplanes within and across racks.
// The model assigns every torus link a medium and length, from which
// per-link channel latencies are derived for the simulator — the single
// backplane design supports configurations from 16 up to 4,096 ASICs.
package packaging

import (
	"fmt"

	"anton2/internal/topo"
)

// Backplane geometry (Figure 2).
const (
	// backplaneX x backplaneY x backplaneZ nodecards per backplane.
	backplaneX = 4
	backplaneY = 4
	backplaneZ = 1
	// backplanesPerRack is 8.
	backplanesPerRack = 8
	// maxNodes is the largest supported machine (16x16x16).
	maxNodes = 4096
)

// Medium classifies a torus link's physical realization.
type Medium uint8

// Link media.
const (
	// BackplaneTrace connects two nodecards on the same backplane.
	BackplaneTrace Medium = iota
	// IntraRackCable connects backplanes within one rack.
	IntraRackCable
	// InterRackCable connects backplanes in different racks.
	InterRackCable
)

func (m Medium) String() string {
	switch m {
	case BackplaneTrace:
		return "backplane trace"
	case IntraRackCable:
		return "intra-rack cable"
	default:
		return "inter-rack cable"
	}
}

// Physical constants for the latency model.
const (
	// nodecardTraceCM is the mean ASIC-to-edge-connector trace length
	// (the paper reports 7.1 to 11.7 cm per nodecard).
	nodecardTraceCM = 9.4
	// Propagation delay on PCB/cable, ~5 ns/m.
	propagationNSPerM = 5.0
	// serDesFixedNS is the serializer/deserializer plus framing latency
	// per link, independent of length.
	serDesFixedNS = 25.0
	// Typical media lengths in centimeters.
	backplaneTraceCM = 25.0
	intraRackCableCM = 120.0
	interRackCableCM = 350.0
)

// Link describes one directed torus link's physical realization.
type Link struct {
	Medium   Medium
	LengthCM float64
}

// latencyNS returns the link's end-to-end flight time.
func (l Link) latencyNS() float64 {
	wire := (l.LengthCM + 2*nodecardTraceCM) / 100 * propagationNSPerM
	return serDesFixedNS + wire
}

// LatencyCycles converts to 1.5 GHz network cycles, rounding up.
func (l Link) LatencyCycles() uint64 {
	ns := l.latencyNS()
	return uint64(ns*1.5 + 0.999)
}

// Plan is a packaging assignment for a machine.
type Plan struct {
	Shape topo.TorusShape
	// Backplane tiling: bpx x bpy x bpz backplanes.
	BPX, BPY, BPZ int
}

// Build tiles a torus shape onto 4x4x1 backplanes. Each dimension must be a
// multiple of the backplane extent (or equal to it for small machines).
func Build(shape topo.TorusShape) (*Plan, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if shape.NumNodes() > maxNodes {
		return nil, fmt.Errorf("packaging: %d nodes exceeds the %d-node maximum", shape.NumNodes(), maxNodes)
	}
	if shape.K[0]%backplaneX != 0 || shape.K[1]%backplaneY != 0 {
		return nil, fmt.Errorf("packaging: shape %v does not tile %dx%dx%d backplanes", shape, backplaneX, backplaneY, backplaneZ)
	}
	return &Plan{
		Shape: shape,
		BPX:   shape.K[0] / backplaneX,
		BPY:   shape.K[1] / backplaneY,
		BPZ:   shape.K[2] / backplaneZ,
	}, nil
}

// NumBackplanes returns the backplane count.
func (p *Plan) NumBackplanes() int { return p.BPX * p.BPY * p.BPZ }

// NumRacks returns the rack count (eight backplanes per rack, rounded up).
func (p *Plan) NumRacks() int {
	return (p.NumBackplanes() + backplanesPerRack - 1) / backplanesPerRack
}

// backplaneOf returns the backplane tile coordinates of a node.
func (p *Plan) backplaneOf(c topo.NodeCoord) (bx, by, bz int) {
	return c.X / backplaneX, c.Y / backplaneY, c.Z / backplaneZ
}

// backplaneIndex flattens backplane coordinates; backplanes are assigned to
// racks in index order.
func (p *Plan) backplaneIndex(bx, by, bz int) int {
	return (bz*p.BPY+by)*p.BPX + bx
}

// rackOf returns the rack number of a backplane.
func (p *Plan) rackOf(bx, by, bz int) int {
	return p.backplaneIndex(bx, by, bz) / backplanesPerRack
}

// linkFor classifies the torus link leaving node from in the given
// direction.
func (p *Plan) linkFor(from topo.NodeCoord, dir topo.Direction) Link {
	to := p.Shape.Neighbor(from, dir)
	fbx, fby, fbz := p.backplaneOf(from)
	tbx, tby, tbz := p.backplaneOf(to)
	if fbx == tbx && fby == tby && fbz == tbz {
		return Link{Medium: BackplaneTrace, LengthCM: backplaneTraceCM}
	}
	if p.rackOf(fbx, fby, fbz) == p.rackOf(tbx, tby, tbz) {
		return Link{Medium: IntraRackCable, LengthCM: intraRackCableCM}
	}
	return Link{Medium: InterRackCable, LengthCM: interRackCableCM}
}

// MediumStats summarizes link counts and total length per medium over all
// directed torus links.
type MediumStats struct {
	Links   int
	TotalCM float64
}

// Stats tallies the machine's physical links.
func (p *Plan) Stats() map[Medium]MediumStats {
	out := map[Medium]MediumStats{}
	for n := 0; n < p.Shape.NumNodes(); n++ {
		c := p.Shape.Coord(n)
		for d := topo.Direction(0); d < topo.NumDirections; d++ {
			for s := 0; s < topo.NumSlices; s++ {
				l := p.linkFor(c, d)
				ms := out[l.Medium]
				ms.Links++
				ms.TotalCM += l.LengthCM
				out[l.Medium] = ms
			}
		}
	}
	return out
}
