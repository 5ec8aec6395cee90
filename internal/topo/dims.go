// Package topo defines the geometry of the Anton 2 network: the
// three-dimensional, channel-sliced inter-node torus; the 4x4 on-chip mesh of
// Figure 1 with its skip channels, endpoint adapters, and torus-channel
// adapters; and the global channel identifier space shared by the routing,
// load-calculation, and deadlock-analysis packages.
package topo

import "fmt"

// Dim identifies one of the three torus dimensions.
type Dim uint8

// The torus dimensions.
const (
	DimX Dim = iota
	DimY
	DimZ
	NumDims = 3
)

func (d Dim) String() string {
	switch d {
	case DimX:
		return "X"
	case DimY:
		return "Y"
	case DimZ:
		return "Z"
	}
	return fmt.Sprintf("Dim(%d)", uint8(d))
}

// Direction identifies a signed torus direction (a node's six neighbors).
type Direction uint8

// The six torus directions. The encoding keeps dim = dir/2 and
// positive = (dir%2 == 0).
const (
	XPos Direction = iota
	XNeg
	YPos
	YNeg
	ZPos
	ZNeg
	NumDirections = 6
)

// Dim returns the dimension the direction moves along.
func (d Direction) Dim() Dim { return Dim(d / 2) }

// Positive reports whether the direction increases the coordinate.
func (d Direction) Positive() bool { return d%2 == 0 }

// Sign returns +1 or -1.
func (d Direction) Sign() int {
	if d.Positive() {
		return 1
	}
	return -1
}

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction { return d ^ 1 }

// DirectionOf returns the direction along dim with the given sign (+1/-1).
func DirectionOf(dim Dim, sign int) Direction {
	d := Direction(dim * 2)
	if sign < 0 {
		d++
	}
	return d
}

func (d Direction) String() string {
	s := "+"
	if !d.Positive() {
		s = "-"
	}
	return d.Dim().String() + s
}

// NumSlices is the channel-slicing factor of the inter-node network: two
// physical channels per direction per node.
const NumSlices = 2

// TorusRateMilli is the serialization rate of a torus channel in millicycles
// per 24-byte flit: 89.6 Gb/s effective against the 288 Gb/s (one flit per
// cycle) mesh channel, i.e. 288/89.6 = 45/14 = 3.214 cycles per flit. The
// simulator's channels and the analytic saturation rates both read it here.
const TorusRateMilli = 3214

// The rest of the hardware the paper fixes and nothing in this repository
// varies: buffer depths in flits per VC (the area model prices the same
// ones), the pipeline depths in cycles of the router (RC, VA, SA1; SA2 grants
// on the next scan) and of the channel adapter, and the channel latencies in
// cycles — TorusLatency covers SerDes, framing and wire flight of a typical
// link (~30 ns), and the simulator gives it to every torus link.
const (
	MeshVCBuf       = 64
	TorusVCBuf      = 256
	RouterPipeline  = 3
	AdapterPipeline = 3
	MeshLatency     = 1
	TorusLatency    = 45
	CreditLatency   = 1
)

// DimOrder is a permutation of the three torus dimensions; inter-node routes
// traverse dimensions in this order.
type DimOrder [NumDims]Dim

// AllDimOrders lists the six dimension orders packets may be assigned
// (Section 2.3): XYZ, XZY, YXZ, YZX, ZXY, ZYX.
var AllDimOrders = [6]DimOrder{
	{DimX, DimY, DimZ},
	{DimX, DimZ, DimY},
	{DimY, DimX, DimZ},
	{DimY, DimZ, DimX},
	{DimZ, DimX, DimY},
	{DimZ, DimY, DimX},
}

func (o DimOrder) String() string {
	return o[0].String() + o[1].String() + o[2].String()
}

// Valid reports whether the order is a permutation of {X, Y, Z}.
func (o DimOrder) Valid() bool {
	var seen [NumDims]bool
	for _, d := range o {
		if d >= NumDims || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// Group classifies channels for the deadlock analysis of Section 2.5.
type Group uint8

const (
	// GroupM contains the on-chip mesh channels except skip channels and
	// router-to-torus-channel-adapter channels (dashed in Figure 1).
	GroupM Group = iota
	// GroupT contains skip channels, router-to-channel-adapter channels,
	// and all inter-node torus channels (solid in Figure 1).
	GroupT
)

func (g Group) String() string {
	if g == GroupM {
		return "M"
	}
	return "T"
}
