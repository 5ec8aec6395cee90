package topo

import "fmt"

// PortKind distinguishes what a router port connects to.
type PortKind uint8

// Router port kinds.
const (
	PortMesh     PortKind = iota // a neighboring mesh router
	PortSkip                     // the skip-channel partner router
	PortAdapter                  // a torus-channel adapter
	PortEndpoint                 // an endpoint adapter
)

func (k PortKind) String() string {
	switch k {
	case PortMesh:
		return "mesh"
	case PortSkip:
		return "skip"
	case PortAdapter:
		return "chan"
	default:
		return "endpoint"
	}
}

// AdapterID names one of the 12 torus-channel adapters on a chip by the
// direction of packets departing through it, and its torus slice.
type AdapterID struct {
	Dir   Direction
	Slice int
}

func (a AdapterID) String() string { return fmt.Sprintf("%s/%d", a.Dir, a.Slice) }

// Index returns a dense index in [0, NumChannelAdapters).
func (a AdapterID) Index() int { return int(a.Dir)*NumSlices + a.Slice }

// AdapterByIndex is the inverse of Index.
func AdapterByIndex(i int) AdapterID {
	return AdapterID{Dir: Direction(i / NumSlices), Slice: i % NumSlices}
}

// Component counts per ASIC (Table 1).
const (
	NumChannelAdapters = NumDirections * NumSlices // 12
	NumEndpoints       = 23
)

// Port describes one bidirectional router port. MaxRouterPorts caps the port
// count: Anton 2 routers have six ports.
const MaxRouterPorts = 6

// Port is one of a router's bidirectional connections.
type Port struct {
	Kind PortKind
	// Mesh direction for PortMesh ports.
	MeshDir MeshDir
	// Partner router for PortMesh and PortSkip ports.
	Peer MeshCoord
	// Adapter for PortAdapter ports.
	Adapter AdapterID
	// Endpoint index for PortEndpoint ports.
	Endpoint int
	// OutChan / InChan are chip-local channel ids for the directed
	// channels leaving and entering the router through this port.
	OutChan, InChan int
}

// Router is one mesh router and its ports.
type Router struct {
	Coord MeshCoord
	Ports []Port
}

// The port lookups below are written as plain loops rather than through a
// predicate helper: they sit on the per-packet routing path, and a closure
// plus an eagerly built description string would allocate on every call.
// Chip construction guarantees presence for all legal queries, so the
// failure message is only formatted on the panic path.

// MeshPort returns the port index toward the mesh neighbor in direction d.
func (r *Router) MeshPort(d MeshDir) int {
	for i := range r.Ports {
		if r.Ports[i].Kind == PortMesh && r.Ports[i].MeshDir == d {
			return i
		}
	}
	panic(fmt.Sprintf("topo: router %s has no mesh %s port", r.Coord, d))
}

// SkipPort returns the skip-channel port index, or -1 if the router has none.
func (r *Router) SkipPort() int {
	for i := range r.Ports {
		if r.Ports[i].Kind == PortSkip {
			return i
		}
	}
	return -1
}

// AdapterPort returns the port index toward the given channel adapter.
func (r *Router) AdapterPort(a AdapterID) int {
	for i := range r.Ports {
		if r.Ports[i].Kind == PortAdapter && r.Ports[i].Adapter == a {
			return i
		}
	}
	panic(fmt.Sprintf("topo: router %s has no adapter %s port", r.Coord, a))
}

// EndpointPort returns the port index toward endpoint ep.
func (r *Router) EndpointPort(ep int) int {
	for i := range r.Ports {
		if r.Ports[i].Kind == PortEndpoint && r.Ports[i].Endpoint == ep {
			return i
		}
	}
	panic(fmt.Sprintf("topo: router %s has no endpoint %d port", r.Coord, ep))
}

// Endpoint describes one endpoint adapter's attachment.
type Endpoint struct {
	ID     int
	Router MeshCoord
	Port   int // port index at Router
	// ToRouter / FromRouter are chip-local channel ids.
	ToRouter, FromRouter int
}

// ChannelAdapter describes one torus-channel adapter's attachment.
type ChannelAdapter struct {
	ID     AdapterID
	Router MeshCoord
	Port   int // port index at Router
	// ToRouter / FromRouter are chip-local channel ids.
	ToRouter, FromRouter int
}

// IntraChan is a directed channel within one ASIC.
type IntraChan struct {
	ID       int
	Group    Group
	From, To Loc
	Name     string
}

// LocKind identifies the type of component a Loc refers to.
type LocKind uint8

// Component location kinds.
const (
	LocRouter LocKind = iota
	LocEndpoint
	LocAdapter
)

// Loc identifies a component within an ASIC.
type Loc struct {
	Kind     LocKind
	Router   MeshCoord // LocRouter
	Endpoint int       // LocEndpoint
	Adapter  AdapterID // LocAdapter
}

// RouterLoc returns the Loc of a router.
func RouterLoc(c MeshCoord) Loc { return Loc{Kind: LocRouter, Router: c} }

// EndpointLoc returns the Loc of an endpoint adapter.
func EndpointLoc(ep int) Loc { return Loc{Kind: LocEndpoint, Endpoint: ep} }

// AdapterLoc returns the Loc of a torus-channel adapter.
func AdapterLoc(a AdapterID) Loc { return Loc{Kind: LocAdapter, Adapter: a} }

func (l Loc) String() string {
	switch l.Kind {
	case LocRouter:
		return l.Router.String()
	case LocEndpoint:
		return fmt.Sprintf("E%d", l.Endpoint)
	default:
		return "C" + l.Adapter.String()
	}
}

// Chip is the on-chip network layout of Figure 1: a 4x4 mesh of routers with
// skip channels at the X edges, 12 torus-channel adapters along the two
// high-speed-I/O edges, and 23 endpoint adapters.
type Chip struct {
	Routers    [NumRouters]Router
	Endpoints  [NumEndpoints]Endpoint
	Adapters   [NumChannelAdapters]ChannelAdapter
	IntraChans []IntraChan
	// SkipPairs lists the skip-channel partner coordinates.
	SkipPairs [][2]MeshCoord
	// coreEndpoints holds one endpoint per router (the "cores" that drive
	// the paper's measurements).
	coreEndpoints [NumRouters]int
	// inPortOf maps a chip channel id to the router port it enters through
	// (router -1 when the channel does not end at a router).
	inPortOf []PortRef
}

// PortRef names a port on a router.
type PortRef struct {
	Router int // dense router id, or -1
	Port   int
}

// adapterPlacement gives the Figure 1 attachment router for each channel
// adapter. The X channels sit at the mesh corners (split across the two I/O
// edges to simplify backplane routing); the Y and Z channel pairs of a slice
// share a single edge router so through-packets traverse one router, and a
// slice's Y and Z channels share a chip edge to shorten Y<->Z turns.
var adapterPlacement = map[AdapterID]MeshCoord{
	{XPos, 0}: {0, 3}, {XPos, 1}: {0, 0},
	{XNeg, 0}: {3, 3}, {XNeg, 1}: {3, 0},
	{YPos, 0}: {0, 2}, {YNeg, 0}: {0, 2},
	{YPos, 1}: {3, 2}, {YNeg, 1}: {3, 2},
	{ZPos, 0}: {0, 1}, {ZNeg, 0}: {0, 1},
	{ZPos, 1}: {3, 1}, {ZNeg, 1}: {3, 1},
}

// endpointPlacement lists endpoint counts per router. The paper reports 23
// endpoint adapters but not their placement; this assignment fills interior
// routers first and respects the six-port router limit.
var endpointPlacement = map[MeshCoord]int{
	{1, 1}: 2, {2, 1}: 2, {1, 2}: 2, {2, 2}: 2, // interior: 8
	{1, 0}: 2, {2, 0}: 2, {1, 3}: 2, {2, 3}: 1, // plain edges: 7
	{0, 0}: 1, {3, 0}: 1, {0, 3}: 1, {3, 3}: 1, // corners: 4
	{0, 1}: 1, {0, 2}: 1, {3, 1}: 1, {3, 2}: 1, // adapter edges: 4
}

var defaultChip = buildChip()

// DefaultChip returns the shared, immutable Figure 1 chip layout.
func DefaultChip() *Chip { return defaultChip }

func buildChip() *Chip {
	c := &Chip{
		SkipPairs: [][2]MeshCoord{
			{{3, 0}, {0, 0}}, // slice-1 X path
			{{3, 3}, {0, 3}}, // slice-0 X path
		},
	}
	for i := range c.Routers {
		c.Routers[i].Coord = RouterCoord(i)
	}

	addChan := func(group Group, from, to Loc, name string) int {
		id := len(c.IntraChans)
		c.IntraChans = append(c.IntraChans, IntraChan{ID: id, Group: group, From: from, To: to, Name: name})
		return id
	}
	addPort := func(rc MeshCoord, p Port) int {
		r := &c.Routers[RouterID(rc)]
		r.Ports = append(r.Ports, p)
		if len(r.Ports) > MaxRouterPorts {
			panic(fmt.Sprintf("topo: router %s exceeds %d ports", rc, MaxRouterPorts))
		}
		return len(r.Ports) - 1
	}

	// Mesh links (GroupM), both directions per adjacent pair.
	for v := 0; v < MeshH; v++ {
		for u := 0; u < MeshW; u++ {
			at := MeshCoord{u, v}
			for _, d := range []MeshDir{UPos, VPos} {
				peer, ok := d.Step(at)
				if !ok {
					continue
				}
				fwd := addChan(GroupM, RouterLoc(at), RouterLoc(peer), fmt.Sprintf("%s->%s", at, peer))
				rev := addChan(GroupM, RouterLoc(peer), RouterLoc(at), fmt.Sprintf("%s->%s", peer, at))
				addPort(at, Port{Kind: PortMesh, MeshDir: d, Peer: peer, OutChan: fwd, InChan: rev})
				addPort(peer, Port{Kind: PortMesh, MeshDir: d.Opposite(), Peer: at, OutChan: rev, InChan: fwd})
			}
		}
	}

	// Skip channels (GroupT): direct links between the X-edge corners.
	for _, pair := range c.SkipPairs {
		a, b := pair[0], pair[1]
		fwd := addChan(GroupT, RouterLoc(a), RouterLoc(b), fmt.Sprintf("skip %s->%s", a, b))
		rev := addChan(GroupT, RouterLoc(b), RouterLoc(a), fmt.Sprintf("skip %s->%s", b, a))
		addPort(a, Port{Kind: PortSkip, Peer: b, OutChan: fwd, InChan: rev})
		addPort(b, Port{Kind: PortSkip, Peer: a, OutChan: rev, InChan: fwd})
	}

	// Torus-channel adapters (GroupT links to their routers).
	for i := 0; i < NumChannelAdapters; i++ {
		id := AdapterByIndex(i)
		rc, ok := adapterPlacement[id]
		if !ok {
			panic("topo: missing adapter placement for " + id.String())
		}
		toR := addChan(GroupT, AdapterLoc(id), RouterLoc(rc), fmt.Sprintf("C%s->%s", id, rc))
		fromR := addChan(GroupT, RouterLoc(rc), AdapterLoc(id), fmt.Sprintf("%s->C%s", rc, id))
		port := addPort(rc, Port{Kind: PortAdapter, Adapter: id, OutChan: fromR, InChan: toR})
		c.Adapters[i] = ChannelAdapter{ID: id, Router: rc, Port: port, ToRouter: toR, FromRouter: fromR}
	}

	// Endpoint adapters (GroupM links).
	ep := 0
	total := 0
	for _, n := range endpointPlacement {
		total += n
	}
	if total != NumEndpoints {
		panic(fmt.Sprintf("topo: endpoint placement totals %d, want %d", total, NumEndpoints))
	}
	for ri := 0; ri < NumRouters; ri++ {
		rc := RouterCoord(ri)
		n := endpointPlacement[rc]
		if n == 0 {
			panic(fmt.Sprintf("topo: router %s has no endpoint; every router hosts a core", rc))
		}
		c.coreEndpoints[ri] = ep
		for j := 0; j < n; j++ {
			toR := addChan(GroupM, EndpointLoc(ep), RouterLoc(rc), fmt.Sprintf("E%d->%s", ep, rc))
			fromR := addChan(GroupM, RouterLoc(rc), EndpointLoc(ep), fmt.Sprintf("%s->E%d", rc, ep))
			port := addPort(rc, Port{Kind: PortEndpoint, Endpoint: ep, OutChan: fromR, InChan: toR})
			c.Endpoints[ep] = Endpoint{ID: ep, Router: rc, Port: port, ToRouter: toR, FromRouter: fromR}
			ep++
		}
	}

	// Channel-to-router-port lookup table.
	c.inPortOf = make([]PortRef, len(c.IntraChans))
	for i := range c.inPortOf {
		c.inPortOf[i] = PortRef{Router: -1}
	}
	for ri := range c.Routers {
		for pi := range c.Routers[ri].Ports {
			c.inPortOf[c.Routers[ri].Ports[pi].InChan] = PortRef{Router: ri, Port: pi}
		}
	}
	return c
}

// InPortOf returns the router port a chip channel enters through
// (Router == -1 when the channel terminates at an endpoint or adapter).
func (c *Chip) InPortOf(chipChan int) PortRef { return c.inPortOf[chipChan] }

// RouterAt returns the router at the given mesh coordinate.
func (c *Chip) RouterAt(mc MeshCoord) *Router { return &c.Routers[RouterID(mc)] }

// AdapterAt returns the channel adapter with the given id.
func (c *Chip) AdapterAt(id AdapterID) *ChannelAdapter { return &c.Adapters[id.Index()] }

// CoreEndpoint returns the endpoint id serving as the "core" attached to the
// given router (one per router, 16 total), matching the paper's test setup.
func (c *Chip) CoreEndpoint(router MeshCoord) int { return c.coreEndpoints[RouterID(router)] }

// CoreEndpoints returns the 16 core endpoint ids, one per router.
func (c *Chip) CoreEndpoints() []int {
	out := make([]int, NumRouters)
	copy(out, c.coreEndpoints[:])
	return out
}

// SkipPartner returns the router reached over the skip channel from rc, or
// ok=false if rc has no skip port.
func (c *Chip) SkipPartner(rc MeshCoord) (MeshCoord, bool) {
	r := c.RouterAt(rc)
	if i := r.SkipPort(); i >= 0 {
		return r.Ports[i].Peer, true
	}
	return MeshCoord{}, false
}
