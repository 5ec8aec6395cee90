// Package route implements the Anton 2 routing algorithms: randomized
// minimal dimension-order inter-node routing over two torus slices
// (Section 2.3), direction-order on-chip routing (Section 2.4), and the
// virtual-channel promotion schemes that keep the unified network
// deadlock-free (Section 2.5).
//
// All routing decisions are pure functions over a packet's State, so the
// cycle-level simulator, the offline load calculator, and the deadlock
// analyzer share one implementation and cannot diverge.
package route

import "anton2/internal/topo"

// Scheme is a virtual-channel promotion discipline for torus routing. A
// packet carries an M-group VC counter (used on mesh and endpoint channels)
// and, while traveling a torus dimension, a T-group VC (used on skip
// channels, router-to-channel-adapter channels, and torus channels).
//
// It is the VC half of a Strategy, which is what a routing configuration
// holds; on its own it is the parameter of the helpers that need VC counts
// alone (ChannelVCs, PhysVC, TotalVCs, the area model).
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// MeshVCs and TorusVCs return the per-traffic-class VC counts needed
	// on M-group and T-group channels.
	MeshVCs() int
	TorusVCs() int
	// EnterDim returns the T-group VC for a packet beginning torus travel
	// with M-VC mvc as the dimIdx-th dimension of its order (0-based).
	EnterDim(mvc uint8, dimIdx int) uint8
	// CrossDateline returns the T-group VC after crossing a dateline.
	CrossDateline(tvc uint8) uint8
	// ExitDim returns the M-group VC after completing dimension dimIdx.
	// traveled reports whether the packet took at least one hop in the
	// dimension; crossed whether it crossed the dateline.
	ExitDim(tvc, mvc uint8, dimIdx int, traveled, crossed bool) uint8
}

// AntonScheme is the paper's VC promotion algorithm (Section 2.5): a single
// counter incremented when a packet 1) crosses a dateline or 2) finishes
// routing along a torus dimension in which it did not cross a dateline. It
// needs only n+1 = 4 VCs in each of the M- and T-groups for a 3-D torus,
// one-third fewer T-group VCs than the previous approach. Its path policy
// is unrestricted randomized minimal routing (minimalPolicy).
type AntonScheme struct{ minimalPolicy }

// Name implements Scheme.
func (AntonScheme) Name() string { return "anton" }

// MeshVCs implements Scheme.
func (AntonScheme) MeshVCs() int { return topo.NumDims + 1 }

// TorusVCs implements Scheme.
func (AntonScheme) TorusVCs() int { return topo.NumDims + 1 }

// EnterDim implements Scheme: the counter carries over unchanged.
func (AntonScheme) EnterDim(mvc uint8, dimIdx int) uint8 { return mvc }

// CrossDateline implements Scheme.
func (AntonScheme) CrossDateline(tvc uint8) uint8 { return tvc + 1 }

// ExitDim implements Scheme.
func (AntonScheme) ExitDim(tvc, mvc uint8, dimIdx int, traveled, crossed bool) uint8 {
	if !traveled {
		return mvc
	}
	if crossed {
		return tvc // already incremented at the dateline
	}
	return tvc + 1
}

// BaselineScheme is the previous approach the paper improves on
// (Nesson & Johnsson [20], as described in Section 2.5): a distinct dateline
// VC pair per torus dimension (2n = 6 T-group VCs) plus an M-group VC
// incremented at each dimension turn (n+1 = 4 M-group VCs).
type BaselineScheme struct{ minimalPolicy }

// Name implements Scheme.
func (BaselineScheme) Name() string { return "baseline-2n" }

// MeshVCs implements Scheme.
func (BaselineScheme) MeshVCs() int { return topo.NumDims + 1 }

// TorusVCs implements Scheme.
func (BaselineScheme) TorusVCs() int { return 2 * topo.NumDims }

// EnterDim implements Scheme: each dimension-order position has its own VC
// pair.
func (BaselineScheme) EnterDim(mvc uint8, dimIdx int) uint8 { return uint8(2 * dimIdx) }

// CrossDateline implements Scheme.
func (BaselineScheme) CrossDateline(tvc uint8) uint8 { return tvc + 1 }

// ExitDim implements Scheme. The M-group VC after dimension-order position
// dimIdx must be dimIdx+1 (not merely mvc+1): tying it to the position keeps
// the inter-group dependency chain M_0 -> T_0/T_1 -> M_1 -> T_2/T_3 -> ...
// strictly layered even when earlier dimensions were skipped with zero hops.
func (BaselineScheme) ExitDim(tvc, mvc uint8, dimIdx int, traveled, crossed bool) uint8 {
	if !traveled {
		return mvc
	}
	return uint8(dimIdx + 1)
}

// NoDatelineScheme is a deliberately broken discipline used to validate the
// deadlock analyzer: it never promotes VCs at datelines, so torus rings with
// more than two nodes form cyclic dependencies. It is a full Strategy so
// the analyzer can walk its routes, but it is never registered: the registry
// is the user-selectable set, and this scheme exists to be rejected.
type NoDatelineScheme struct{ minimalPolicy }

// Name implements Scheme.
func (NoDatelineScheme) Name() string { return "broken-no-dateline" }

// MeshVCs implements Scheme.
func (NoDatelineScheme) MeshVCs() int { return topo.NumDims + 1 }

// TorusVCs implements Scheme.
func (NoDatelineScheme) TorusVCs() int { return topo.NumDims + 1 }

// EnterDim implements Scheme.
func (NoDatelineScheme) EnterDim(mvc uint8, dimIdx int) uint8 { return mvc }

// CrossDateline implements Scheme: broken on purpose.
func (NoDatelineScheme) CrossDateline(tvc uint8) uint8 { return tvc }

// ExitDim implements Scheme.
func (NoDatelineScheme) ExitDim(tvc, mvc uint8, dimIdx int, traveled, crossed bool) uint8 {
	if !traveled {
		return mvc
	}
	return tvc + 1
}

// ChannelVCs returns the per-traffic-class VC count a channel of the given
// group must implement under the scheme.
func ChannelVCs(s Scheme, g topo.Group) int {
	if g == topo.GroupT {
		return s.TorusVCs()
	}
	return s.MeshVCs()
}

// NumClasses is the traffic-class count: separate request and reply classes
// avoid protocol deadlocks (Section 2.1).
const NumClasses = 2

// Class identifies a traffic class.
type Class uint8

// The two traffic classes.
const (
	ClassRequest Class = iota
	ClassReply
)

func (c Class) String() string {
	if c == ClassRequest {
		return "request"
	}
	return "reply"
}

// PhysVC maps a (class, scheme VC) pair to a physical VC index on a channel
// of the given group. Physical VCs on a channel number
// [0, NumClasses*ChannelVCs).
func PhysVC(s Scheme, g topo.Group, c Class, vc uint8) int {
	return int(c)*ChannelVCs(s, g) + int(vc)
}

// TotalVCs returns the physical VC count for a channel of the given group.
func TotalVCs(s Scheme, g topo.Group) int { return NumClasses * ChannelVCs(s, g) }

// MaxTotalVCs returns the largest physical VC count over both groups; router
// input buffers are sized for this.
func MaxTotalVCs(s Scheme) int {
	m, t := TotalVCs(s, topo.GroupM), TotalVCs(s, topo.GroupT)
	if t > m {
		return t
	}
	return m
}
