package topo

import "fmt"

// NodeCoord locates a node (one ASIC) within the torus.
type NodeCoord struct {
	X, Y, Z int
}

func (c NodeCoord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Get returns the coordinate along dim.
func (c NodeCoord) Get(d Dim) int {
	switch d {
	case DimX:
		return c.X
	case DimY:
		return c.Y
	default:
		return c.Z
	}
}

// With returns a copy with the coordinate along dim replaced.
func (c NodeCoord) With(d Dim, v int) NodeCoord {
	switch d {
	case DimX:
		c.X = v
	case DimY:
		c.Y = v
	default:
		c.Z = v
	}
	return c
}

// TorusShape describes the radix of each torus dimension. Anton 2 supports
// configurations from 4x4x1 up to 16x16x16.
type TorusShape struct {
	K [NumDims]int
}

// Shape3 is shorthand for a TorusShape with the given radices.
func Shape3(kx, ky, kz int) TorusShape { return TorusShape{K: [NumDims]int{kx, ky, kz}} }

func (s TorusShape) String() string { return fmt.Sprintf("%dx%dx%d", s.K[0], s.K[1], s.K[2]) }

// NumNodes returns the total node count.
func (s TorusShape) NumNodes() int { return s.K[0] * s.K[1] * s.K[2] }

// Validate checks that every radix is at least 1 and the machine is within
// the supported maximum of 16x16x16.
func (s TorusShape) Validate() error {
	for d, k := range s.K {
		if k < 1 || k > 16 {
			return fmt.Errorf("topo: dimension %s radix %d outside supported range [1,16]", Dim(d), k)
		}
	}
	return nil
}

// ParseShape parses a "KxKxK" torus shape, e.g. "8x4x2". It is strict: the
// input must be exactly what String renders for the parsed shape, so trailing
// input ("4x4x2x9"), signs and leading zeros are rejected rather than ignored.
func ParseShape(s string) (TorusShape, error) {
	var shape TorusShape
	if _, err := fmt.Sscanf(s, "%dx%dx%d", &shape.K[0], &shape.K[1], &shape.K[2]); err != nil || shape.String() != s {
		return TorusShape{}, fmt.Errorf("topo: bad shape %q (want KxKxK, e.g. 8x4x2)", s)
	}
	return shape, shape.Validate()
}

// NodeID maps a coordinate to a dense index in [0, NumNodes).
func (s TorusShape) NodeID(c NodeCoord) int {
	return (c.Z*s.K[1]+c.Y)*s.K[0] + c.X
}

// Coord is the inverse of NodeID.
func (s TorusShape) Coord(id int) NodeCoord {
	x := id % s.K[0]
	id /= s.K[0]
	y := id % s.K[1]
	z := id / s.K[1]
	return NodeCoord{X: x, Y: y, Z: z}
}

// Wrap reduces each coordinate modulo the radix.
func (s TorusShape) Wrap(c NodeCoord) NodeCoord {
	c.X = mod(c.X, s.K[0])
	c.Y = mod(c.Y, s.K[1])
	c.Z = mod(c.Z, s.K[2])
	return c
}

// Neighbor returns the adjacent node in the given direction.
func (s TorusShape) Neighbor(c NodeCoord, dir Direction) NodeCoord {
	d := dir.Dim()
	return c.With(d, mod(c.Get(d)+dir.Sign(), s.K[d]))
}

// MinimalDelta returns the shortest signed hop count from a to b along dim,
// and whether the opposite-sign path has equal length (a tie, possible only
// for even radices at exactly k/2).
func (s TorusShape) MinimalDelta(a, b NodeCoord, d Dim) (delta int, tie bool) {
	k := s.K[d]
	fwd := mod(b.Get(d)-a.Get(d), k)
	if fwd == 0 {
		return 0, false
	}
	if 2*fwd < k {
		return fwd, false
	}
	if 2*fwd > k {
		return fwd - k, false
	}
	return fwd, true // exactly k/2: both directions minimal
}

// HopDistance returns the minimal inter-node hop count between two nodes.
func (s TorusShape) HopDistance(a, b NodeCoord) int {
	total := 0
	for d := Dim(0); d < NumDims; d++ {
		delta, _ := s.MinimalDelta(a, b, d)
		if delta < 0 {
			delta = -delta
		}
		total += delta
	}
	return total
}

// CrossesDateline reports whether a single hop from coordinate x in the given
// direction crosses the dateline of that dimension. Following Section 2.5,
// the dateline sits between nodes k-1 and 0 in both directions.
func (s TorusShape) CrossesDateline(x int, dir Direction) bool {
	k := s.K[dir.Dim()]
	if k == 1 {
		return false
	}
	if dir.Positive() {
		return x == k-1
	}
	return x == 0
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}
