package topo

import "fmt"

// MeshW and MeshH give the on-chip mesh extent: a 4x4 mesh of routers
// (Figure 1). The two mesh dimensions are called U and V to avoid confusion
// with the torus dimensions.
const (
	MeshW = 4 // extent of U
	MeshH = 4 // extent of V
	// NumRouters is the router count per ASIC.
	NumRouters = MeshW * MeshH
)

// MeshCoord locates a router within the on-chip mesh.
type MeshCoord struct {
	U, V int
}

func (c MeshCoord) String() string { return fmt.Sprintf("R%d,%d", c.U, c.V) }

// RouterID maps a mesh coordinate to a dense index in [0, NumRouters).
func RouterID(c MeshCoord) int { return c.V*MeshW + c.U }

// RouterCoord is the inverse of RouterID.
func RouterCoord(id int) MeshCoord { return MeshCoord{U: id % MeshW, V: id / MeshW} }

// MeshDir identifies a signed on-chip mesh direction.
type MeshDir uint8

// The four mesh directions.
const (
	UPos MeshDir = iota
	UNeg
	VPos
	VNeg
	NumMeshDirs = 4
)

func (d MeshDir) String() string {
	switch d {
	case UPos:
		return "U+"
	case UNeg:
		return "U-"
	case VPos:
		return "V+"
	default:
		return "V-"
	}
}

// opposite returns the reverse mesh direction.
func (d MeshDir) opposite() MeshDir { return d ^ 1 }

// step returns the coordinate one hop away; ok is false at a mesh edge.
func (d MeshDir) step(c MeshCoord) (MeshCoord, bool) {
	switch d {
	case UPos:
		c.U++
	case UNeg:
		c.U--
	case VPos:
		c.V++
	default:
		c.V--
	}
	ok := c.U >= 0 && c.U < MeshW && c.V >= 0 && c.V < MeshH
	return c, ok
}

// DirOrder is an ordering of the four mesh directions; the on-chip local
// routing algorithm traverses needed directions in this order (Section 2.4).
// Direction-order routing is deterministic and deadlock-free with a single VC.
type DirOrder [NumMeshDirs]MeshDir

// DefaultDirOrder is the direction-order algorithm selected by the
// worst-case search of Section 2.4 (see internal/wctraffic) for this
// repository's reconstruction of the Figure 1 layout: it achieves the
// paper's optimal worst-case mesh-channel load of two torus channels.
//
// The paper reports V- U+ U- V+ as its optimum; the exact winner depends on
// layout details the paper does not fully specify (endpoint placement and
// the corner-crossing rule for X-turning traffic), and under our
// reconstruction the optimal set is {V-U-V+U+, V-V+U+U-, V-V+U-U+,
// V+U+V-U-, V+V-U+U-, V+V-U-U+}, all at load 2. We pick the member that,
// like the paper's, routes V- first.
var DefaultDirOrder = DirOrder{VNeg, UNeg, VPos, UPos}

// PaperDirOrder is the direction order reported by the paper
// (V-, U+, U-, V+), kept for the direction-order ablation (anton2bench fig4
// marks its row).
var PaperDirOrder = DirOrder{VNeg, UPos, UNeg, VPos}

func (o DirOrder) String() string {
	return o[0].String() + " " + o[1].String() + " " + o[2].String() + " " + o[3].String()
}

// AllDirOrders enumerates all 24 direction-order routing algorithms, the
// search space of Section 2.4.
func AllDirOrders() []DirOrder {
	dirs := [NumMeshDirs]MeshDir{UPos, UNeg, VPos, VNeg}
	var out []DirOrder
	var permute func(k int)
	permute = func(k int) {
		if k == NumMeshDirs {
			out = append(out, DirOrder(dirs))
			return
		}
		for i := k; i < NumMeshDirs; i++ {
			dirs[k], dirs[i] = dirs[i], dirs[k]
			permute(k + 1)
			dirs[k], dirs[i] = dirs[i], dirs[k]
		}
	}
	permute(0)
	return out
}

// NextMeshDir returns the first direction a direction-order route from a to b
// moves in, or ok=false if a == b.
func (o DirOrder) NextMeshDir(a, b MeshCoord) (MeshDir, bool) {
	du, dv := b.U-a.U, b.V-a.V
	for _, d := range o {
		switch d {
		case UPos:
			if du > 0 {
				return d, true
			}
		case UNeg:
			if du < 0 {
				return d, true
			}
		case VPos:
			if dv > 0 {
				return d, true
			}
		case VNeg:
			if dv < 0 {
				return d, true
			}
		}
	}
	return 0, false
}
