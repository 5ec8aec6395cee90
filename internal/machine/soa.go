package machine

import (
	"anton2/internal/arbiter"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// hotArena owns the flat backing storage of every component: the routers,
// channel adapters and endpoints themselves, and the per-component arrays
// the tick path indexes — the VC queues of all routers and channel adapters,
// the routers' port tables, crossbar-input occupancy and SA2 arbiters, the
// inverse-weighted arbiters' weighted records and accumulators (made only
// on an inverse-weighted machine), the adapters' multicast branch
// lists and the arbiter scratch labels. (Credit counters and pipes live
// inline in the machine's channel slab; ready and occupancy masks and the
// SA1 and adapter arbiters live in the components and port tables.)
// Components are carved in registration (component-id) order, so the cycle
// kernel walks dense memory instead of chasing per-component allocations, and
// a build makes a few dozen allocations however large the machine.
type hotArena struct {
	routers   slab[router]
	adapters  slab[channelAdapter]
	endpoints slab[EndpointAdapter]

	vcqs     slab[vcq]
	ports    slab[routerPort]
	busy     slab[uint64]
	arbs     slab[arbiter.Arbiter]
	weighted slab[arbiter.Weighted]
	accum    slab[uint32]
	branches slab[pktList]
	pats     slab[uint8]
}

// slab is one pre-sized array of the arena and its carve cursor.
type slab[T any] struct {
	s    []T
	next int
}

func makeSlab[T any](n int) slab[T] { return slab[T]{s: make([]T, n)} }

// take carves the next n elements, as a full slice expression (len == cap),
// so an accidental append in one component can never bleed into its
// neighbor's storage.
func (s *slab[T]) take(n int) []T {
	t := s.s[s.next : s.next+n : s.next+n]
	s.next += n
	return t
}

// newArena pre-sizes the arena for a machine: the chip layout is identical
// on every node, so one pass over the chip description scaled by the node
// count sizes every array exactly.
func newArena(m *Machine) hotArena {
	maxVC := route.MaxTotalVCs(m.Cfg.Scheme)
	tvcs := route.TotalVCs(m.Cfg.Scheme, topo.GroupT)
	nPorts, nSA2, nPats := 0, 0, 0
	for ri := 0; ri < topo.NumRouters; ri++ {
		cr := m.Topo.Chip.RouterAt(topo.RouterCoord(ri))
		p := len(cr.Ports)
		nPorts += p
		nSA2 += p * p
		nPats += max(maxVC, p)
	}
	nodes := m.Topo.NumNodes()
	a := hotArena{
		routers:   makeSlab[router](topo.NumRouters * nodes),
		adapters:  makeSlab[channelAdapter](topo.NumChannelAdapters * nodes),
		endpoints: makeSlab[EndpointAdapter](topo.NumEndpoints * nodes),
		vcqs:      makeSlab[vcq]((nPorts*maxVC + topo.NumChannelAdapters*2*tvcs) * nodes),
		ports:     makeSlab[routerPort](nPorts * nodes),
		busy:      makeSlab[uint64](nPorts * nodes),
		arbs:      makeSlab[arbiter.Arbiter](nPorts * nodes),
		branches:  makeSlab[pktList](topo.NumChannelAdapters * tvcs * nodes),
		pats:      makeSlab[uint8]((nPats + topo.NumChannelAdapters*tvcs) * nodes),
	}
	if m.Cfg.Arbiter == arbiter.KindInverseWeighted {
		// One weighted record per arbiter — each port's SA1 and SA2, each
		// adapter side's — and one accumulator per arbiter input: maxVC
		// for SA1, its router's port count for SA2, tvcs for an adapter.
		a.weighted = makeSlab[arbiter.Weighted]((2*nPorts + topo.NumChannelAdapters*2) * nodes)
		a.accum = makeSlab[uint32]((nPorts*maxVC + nSA2 + topo.NumChannelAdapters*2*tvcs) * nodes)
	}
	return a
}

// initArbiter builds a in place as one arbitration point over k inputs of
// the configured flavor; weights is the point's slice of Cfg.Weights, which
// an inverse-weighted machine always has.
func (m *Machine) initArbiter(a *arbiter.Arbiter, k int, weights [][arbiter.NumPatterns]uint32) {
	if m.Cfg.Arbiter != arbiter.KindInverseWeighted {
		a.Init(k, nil, nil, nil)
		return
	}
	a.Init(k, &m.arena.weighted.take(1)[0], weights, m.arena.accum.take(k))
}

// newVCSet carves n VC queues from the arena and builds the arbiter over
// them in place.
func (m *Machine) newVCSet(s *vcset, n int, weights [][arbiter.NumPatterns]uint32) {
	s.vcs = m.arena.vcqs.take(n)
	m.initArbiter(&s.arb, n, weights)
}
