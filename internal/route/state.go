package route

import (
	"fmt"

	"anton2/internal/topo"
)

// Mode is the phase of a packet's route.
type Mode uint8

// Route phases.
const (
	// ModeMeshToAdapter: routing across the on-chip mesh (M-group) toward
	// the egress torus-channel adapter of the packet's current dimension.
	ModeMeshToAdapter Mode = iota
	// ModeTransit: traveling along a torus dimension (T-group); inside a
	// node the packet passes from ingress adapter to egress adapter,
	// using the skip channel for X through-traffic.
	ModeTransit
	// ModeMeshToEndpoint: routing across the mesh to the destination
	// endpoint on the final node.
	ModeMeshToEndpoint
)

func (m Mode) String() string {
	switch m {
	case ModeMeshToAdapter:
		return "mesh->adapter"
	case ModeTransit:
		return "transit"
	default:
		return "mesh->endpoint"
	}
}

// State is a packet's routing state. It is initialized at injection and
// mutated at each decision point; the same transition functions drive the
// cycle-level simulator, the load calculator, and the deadlock analyzer.
type State struct {
	// Immutable per-packet routing choices (randomized at injection).
	DimOrder topo.DimOrder
	Slice    uint8
	Ties     [topo.NumDims]int8 // tie-break sign when distance is exactly k/2
	Class    Class

	// Mutable position in the route.
	Mode     Mode
	DimIdx   uint8 // 0..NumDims; index into DimOrder
	Dir      topo.Direction
	Crossed  bool // crossed the dateline in the current dimension
	Traveled bool // took >= 1 hop in the current dimension
	MVC      uint8
	TVC      uint8

	// ViaSkip routes the current egress leg to the skip partner of the
	// adapter's corner router, crossing the skip channel as the first
	// T-group hop of the dimension (packets bound for an X adapter on
	// the far side of the chip enter through the near corner).
	ViaSkip bool
	// SkipExit makes the next router hop a skip traversal at the
	// arrival T-group VC: a packet that finished an X dimension crosses
	// to the other side of the chip before starting its M-group leg.
	SkipExit bool
}

// Config bundles the ingredients of a routing decision.
type Config struct {
	Machine *topo.Machine
	// Scheme is the routing strategy: the VC discipline and the path
	// policy every transition function below consults.
	Scheme   Strategy
	DirOrder topo.DirOrder // on-chip direction order
	// UseSkip selects whether X through-traffic uses the skip channels
	// (true in Anton 2; false only for the ablation study).
	UseSkip bool
	// EntrySkip lets packets turning INTO the X dimension reach a
	// far-side egress adapter via the near corner plus the skip channel.
	// DISABLED in the default configuration: combined with ExitSkip it
	// creates single-VC cycles through the mesh (the deadlock analyzer
	// demonstrates this), and ExitSkip alone already achieves the
	// paper's worst-case mesh load of 2.
	EntrySkip bool
	// ExitSkip lets packets that finished the X dimension cross to the
	// other side of the chip over the skip channel (at the arrival
	// T-group VC) before starting their M-group leg.
	ExitSkip bool
}

// NewConfig returns a Config with the paper's defaults: the Anton strategy
// and the V- U+ U- V+ direction order with skip channels enabled.
func NewConfig(m *topo.Machine) *Config {
	return &Config{Machine: m, Scheme: AntonScheme{}, DirOrder: topo.DefaultDirOrder, UseSkip: true, ExitSkip: true}
}

// delta returns the signed hop count from node cur to dst along dim. For
// wrapping strategies it is the minimal delta with the packet's tie-break
// applied when both directions are minimal; for non-wrapping strategies it
// is the monotone coordinate difference, which never crosses a dateline.
func (st *State) delta(cfg *Config, cur, dst topo.NodeCoord, d topo.Dim) int {
	if !cfg.Scheme.Wraps() {
		return dst.Get(d) - cur.Get(d)
	}
	delta, tie := cfg.Machine.Shape.MinimalDelta(cur, dst, d)
	if tie && st.Ties[d] < 0 {
		return -delta
	}
	return delta
}

// Init creates the routing state for a packet injected at src bound for dst,
// with the given randomized dimension order, slice, and tie-break signs.
func Init(cfg *Config, src, dst topo.NodeEp, ord topo.DimOrder, slice uint8, ties [topo.NumDims]int8, class Class) State {
	st := State{DimOrder: ord, Slice: slice, Ties: ties, Class: class}
	st.advance(cfg, cfg.Machine.Shape.Coord(src.Node), dst)
	_, st.ViaSkip = st.legPlan(cfg, dst, cfg.Machine.Chip.Endpoints[src.Ep].Router)
	return st
}

// meshDist is the minimal on-chip hop count between two routers.
func meshDist(a, b topo.MeshCoord) int {
	du, dv := a.U-b.U, a.V-b.V
	if du < 0 {
		du = -du
	}
	if dv < 0 {
		dv = -dv
	}
	return du + dv
}

// legPlan evaluates the current M-group leg from position at: its mesh hop
// cost and whether the leg should enter the next dimension's T-group over a
// skip channel (an egress adapter on the far side of the chip is reached
// through the near corner plus the skip, which is both shorter and keeps
// X-turning traffic off the opposite column — essential to the worst-case
// load of 2 in Section 2.4).
func (st *State) legPlan(cfg *Config, dst topo.NodeEp, at topo.MeshCoord) (cost int, viaSkip bool) {
	chip := cfg.Machine.Chip
	var tgt topo.MeshCoord
	if st.Mode == ModeMeshToAdapter {
		tgt = chip.AdapterAt(st.EgressAdapter()).Router
	} else {
		tgt = chip.Endpoints[dst.Ep].Router
	}
	cost = meshDist(at, tgt)
	if st.Mode == ModeMeshToAdapter && cfg.UseSkip && cfg.EntrySkip {
		if alt, ok := chip.SkipPartner(tgt); ok {
			if c := meshDist(at, alt) + 1; c < cost {
				return c, true
			}
		}
	}
	return cost, false
}

// advance moves the state past any zero-hop dimensions starting at DimIdx,
// leaving it either ready to travel (ModeMeshToAdapter with Dir set) or
// bound for the destination endpoint (ModeMeshToEndpoint).
func (st *State) advance(cfg *Config, cur topo.NodeCoord, dst topo.NodeEp) {
	dstCoord := cfg.Machine.Shape.Coord(dst.Node)
	for int(st.DimIdx) < topo.NumDims {
		d := st.DimOrder[st.DimIdx]
		if delta := st.delta(cfg, cur, dstCoord, d); delta != 0 {
			sign := 1
			if delta < 0 {
				sign = -1
			}
			st.Dir = topo.DirectionOf(d, sign)
			st.Crossed = false
			st.Traveled = false
			st.Mode = ModeMeshToAdapter
			return
		}
		st.DimIdx++ // zero hops: skip with no VC change
	}
	st.Mode = ModeMeshToEndpoint
}

// exitDim completes the current dimension (applying the VC promotion rule)
// and advances to the next traveling dimension or to endpoint delivery.
func (st *State) exitDim(cfg *Config, cur topo.NodeCoord, dst topo.NodeEp) {
	st.MVC = cfg.Scheme.ExitDim(st.TVC, st.MVC, int(st.DimIdx), st.Traveled, st.Crossed)
	st.DimIdx++
	st.advance(cfg, cur, dst)
}

// EgressAdapter returns the torus-channel adapter the packet must reach to
// continue its current dimension. Valid in ModeMeshToAdapter and ModeTransit.
func (st *State) EgressAdapter() topo.AdapterID {
	return topo.AdapterID{Dir: st.Dir, Slice: int(st.Slice)}
}

// TargetRouter returns the mesh coordinate the packet's on-chip route aims
// for in its current mode.
func (st *State) TargetRouter(cfg *Config, dst topo.NodeEp) topo.MeshCoord {
	chip := cfg.Machine.Chip
	switch st.Mode {
	case ModeMeshToAdapter, ModeTransit:
		tgt := chip.AdapterAt(st.EgressAdapter()).Router
		if st.Mode == ModeMeshToAdapter && st.ViaSkip {
			if alt, ok := chip.SkipPartner(tgt); ok {
				return alt
			}
		}
		return tgt
	default:
		return chip.Endpoints[dst.Ep].Router
	}
}

// RouterNext computes the output port and output-channel VC for a packet at
// router rc, updating the state. It implements RC (route computation): mesh
// hops use the direction-order algorithm; transit packets are steered to the
// egress adapter directly or over the skip channel.
func RouterNext(cfg *Config, st *State, dst topo.NodeEp, rc topo.MeshCoord) (port int, vc uint8) {
	chip := cfg.Machine.Chip
	r := chip.RouterAt(rc)

	if st.SkipExit {
		// Final hop of the previous dimension's T-group leg: cross to
		// the other side of the chip at the arrival VC.
		sp := r.SkipPort()
		if sp < 0 {
			panic(fmt.Sprintf("route: SkipExit at %v, which has no skip port", rc))
		}
		st.SkipExit = false
		return sp, st.TVC
	}
	target := st.TargetRouter(cfg, dst)

	if st.Mode == ModeTransit {
		// In-dimension through-traffic stays in the T-group.
		if rc == target {
			return r.AdapterPort(st.EgressAdapter()), st.TVC
		}
		if sp := r.SkipPort(); sp >= 0 && r.Ports[sp].Peer == target {
			return sp, st.TVC
		}
		// Skip channels disabled (ablation): fall through to mesh
		// routing at the transit VC. This widens the T-group VC usage
		// to mesh channels and is only legal because the ablation also
		// sizes mesh channels for T-group VCs.
		d, ok := cfg.DirOrder.NextMeshDir(rc, target)
		if !ok {
			panic(fmt.Sprintf("route: transit at %v with unreachable egress %v", rc, target))
		}
		return r.MeshPort(d), st.TVC
	}

	if rc == target {
		switch st.Mode {
		case ModeMeshToAdapter:
			// The M->T transition: either directly onto the
			// router->adapter channel, or over the skip channel
			// when the egress adapter sits on the far corner.
			st.TVC = cfg.Scheme.EnterDim(st.MVC, int(st.DimIdx))
			st.Mode = ModeTransit
			if st.ViaSkip {
				st.ViaSkip = false
				sp := r.SkipPort()
				if sp < 0 {
					panic(fmt.Sprintf("route: ViaSkip at %v, which has no skip port", rc))
				}
				return sp, st.TVC
			}
			return r.AdapterPort(st.EgressAdapter()), st.TVC
		default:
			return r.EndpointPort(dst.Ep), st.MVC
		}
	}
	d, ok := cfg.DirOrder.NextMeshDir(rc, target)
	if !ok {
		panic(fmt.Sprintf("route: at target router %v but mode %v disagrees", rc, st.Mode))
	}
	return r.MeshPort(d), st.MVC
}

// AdapterEgress applies the dateline rule as the packet leaves a node on a
// torus channel and returns the VC to use on that channel. node is the
// sending node's coordinate.
func AdapterEgress(cfg *Config, st *State, node topo.NodeCoord) (vc uint8) {
	if cfg.Machine.Shape.CrossesDateline(node.Get(st.Dir.Dim()), st.Dir) {
		st.TVC = cfg.Scheme.CrossDateline(st.TVC)
		st.Crossed = true
	}
	st.Traveled = true
	return st.TVC
}

// AdapterIngress processes a packet arriving at a node over a torus channel:
// it either continues in the current dimension (ModeTransit) or completes it
// and turns toward the next dimension or the destination endpoint. It
// returns the VC for the adapter->router channel, which is always the
// T-group VC the packet arrived with.
func AdapterIngress(cfg *Config, st *State, dst topo.NodeEp, node int) (vc uint8) {
	vc = st.TVC
	shape := cfg.Machine.Shape
	chip := cfg.Machine.Chip
	cur := shape.Coord(node)
	d := st.Dir.Dim()
	if delta := st.delta(cfg, cur, shape.Coord(dst.Node), d); delta != 0 {
		// More hops needed in this dimension; minimal (or monotone)
		// routing guarantees the sign cannot flip mid-dimension.
		if topo.DirectionOf(d, sgn(delta)) != st.Dir {
			panic(fmt.Sprintf("route: direction flip in dim %v at node %v", d, cur))
		}
		st.Mode = ModeTransit
		return vc
	}
	// Dimension complete: promote the VC and plan the next on-chip leg,
	// considering a skip crossing from the ingress corner (the tail of
	// this dimension's T-group leg) when it shortens the route.
	ingress := chip.AdapterAt(topo.AdapterID{Dir: st.Dir.Opposite(), Slice: int(st.Slice)}).Router
	st.exitDim(cfg, cur, dst)
	st.planAfterDim(cfg, dst, ingress)
	return vc
}

// planAfterDim chooses the exit landing (stay at the ingress corner or
// cross its skip) and the entry plan for the next on-chip leg.
func (st *State) planAfterDim(cfg *Config, dst topo.NodeEp, ingress topo.MeshCoord) {
	st.SkipExit = false
	costDirect, viaDirect := st.legPlan(cfg, dst, ingress)
	st.ViaSkip = viaDirect
	if cfg.UseSkip && cfg.ExitSkip {
		if sp, ok := cfg.Machine.Chip.SkipPartner(ingress); ok {
			if costVia, viaS := st.legPlan(cfg, dst, sp); costVia+1 < costDirect {
				st.SkipExit = true
				st.ViaSkip = viaS
			}
		}
	}
}

// Multicast support (Section 2.3): table-based multicast replicates packets
// at endpoint and channel adapters; every root-to-leaf path of the tree is
// a valid unicast route, so branch copies follow the same state transitions
// as unicast packets. The table (not the packet's destination) makes the
// forwarding decisions, so branch states are initialized explicitly.

// InitMulticastBranch builds the state of a copy injected at the source
// node that will travel in dir as the dimIdx-th dimension of the tree's
// order, starting from the endpoint attached at srcRouter.
func InitMulticastBranch(cfg *Config, dir topo.Direction, dimIdx uint8, order topo.DimOrder, slice uint8, class Class, srcRouter topo.MeshCoord) State {
	st := State{
		DimOrder: order,
		Slice:    slice,
		Ties:     [topo.NumDims]int8{1, 1, 1},
		Class:    class,
		DimIdx:   dimIdx,
		Dir:      dir,
		Mode:     ModeMeshToAdapter,
	}
	_, st.ViaSkip = st.legPlan(cfg, topo.NodeEp{}, srcRouter)
	return st
}

// MulticastContinue keeps a branch traveling through the node in its
// current dimension.
func MulticastContinue(st *State) { st.Mode = ModeTransit }

// MulticastTurn redirects a branch into a new dimension at a tree fork,
// applying the same VC promotion a unicast dimension exit would.
func MulticastTurn(cfg *Config, st *State, dir topo.Direction, dimIdx uint8, ingress topo.MeshCoord) {
	st.MVC = cfg.Scheme.ExitDim(st.TVC, st.MVC, int(st.DimIdx), st.Traveled, st.Crossed)
	st.DimIdx = dimIdx
	st.Dir = dir
	st.Crossed, st.Traveled = false, false
	st.Mode = ModeMeshToAdapter
	st.planAfterDim(cfg, topo.NodeEp{}, ingress)
}

// MulticastDeliver turns a branch into a local delivery to dst.
func MulticastDeliver(cfg *Config, st *State, dst topo.NodeEp, ingress topo.MeshCoord) {
	st.MVC = cfg.Scheme.ExitDim(st.TVC, st.MVC, int(st.DimIdx), st.Traveled, st.Crossed)
	st.Mode = ModeMeshToEndpoint
	st.planAfterDim(cfg, dst, ingress)
}

func sgn(x int) int {
	if x < 0 {
		return -1
	}
	return 1
}
