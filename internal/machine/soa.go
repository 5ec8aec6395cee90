package machine

import (
	"anton2/internal/arbiter"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// hotArena owns the flat backing storage for the per-component arrays the
// tick path indexes: the VC queues of all routers and channel adapters, and
// the routers' port tables, crossbar-input occupancy and arbiter scratch
// labels. (Credit counters and pipes live inline in fabric.Channel; ready and
// occupancy masks live in the components and port tables.) Components are
// carved contiguous subslices in registration (component-id) order, so the
// cycle kernel walks dense memory instead of chasing per-component
// allocations. The carve uses full slice expressions (len == cap), so an
// accidental append in one component can never bleed into its neighbor's
// storage.
type hotArena struct {
	vcqs  []vcq
	ports []routerPort
	busy  []uint64
	pats  []uint8

	nq, np, nb, ns int // carve cursors
}

// newArena pre-sizes the arena for a machine: the chip layout is identical
// on every node, so one pass over the chip description scaled by the node
// count sizes every array exactly.
func newArena(m *Machine) hotArena {
	maxVC := route.MaxTotalVCs(m.Cfg.Scheme)
	tvcs := route.TotalVCs(m.Cfg.Scheme, topo.GroupT)
	nPorts, nPats := 0, 0
	for ri := 0; ri < topo.NumRouters; ri++ {
		cr := m.Topo.Chip.RouterAt(topo.RouterCoord(ri))
		p := len(cr.Ports)
		nPorts += p
		scratch := maxVC
		if scratch < p {
			scratch = p
		}
		nPats += scratch
	}
	nodes := m.Topo.NumNodes()
	return hotArena{
		vcqs:  make([]vcq, (nPorts*maxVC+topo.NumChannelAdapters*2*tvcs)*nodes),
		ports: make([]routerPort, nPorts*nodes),
		busy:  make([]uint64, nPorts*nodes),
		pats:  make([]uint8, (nPats+topo.NumChannelAdapters*tvcs)*nodes),
	}
}

// carve takes the next n elements of arr at cursor *next, as a full slice
// expression (len == cap).
func carve[T any](arr []T, next *int, n int) []T {
	s := arr[*next : *next+n : *next+n]
	*next += n
	return s
}

// newVCSet carves n VC queues from the arena and puts an arbiter over them.
func (m *Machine) newVCSet(n int, weights [][arbiter.NumPatterns]uint32) vcset {
	return vcset{vcs: carve(m.arena.vcqs, &m.arena.nq, n), arb: m.newArbiter(n, weights)}
}
