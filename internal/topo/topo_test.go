package topo

import (
	"testing"
	"testing/quick"
)

func TestDirectionEncoding(t *testing.T) {
	cases := []struct {
		dir  Direction
		dim  Dim
		sign int
	}{
		{XPos, DimX, 1}, {XNeg, DimX, -1},
		{YPos, DimY, 1}, {YNeg, DimY, -1},
		{ZPos, DimZ, 1}, {ZNeg, DimZ, -1},
	}
	for _, c := range cases {
		if c.dir.Dim() != c.dim || c.dir.Sign() != c.sign {
			t.Errorf("%v: dim=%v sign=%d, want %v %d", c.dir, c.dir.Dim(), c.dir.Sign(), c.dim, c.sign)
		}
		if c.dir.Opposite().Opposite() != c.dir {
			t.Errorf("%v: double opposite is not identity", c.dir)
		}
		if DirectionOf(c.dim, c.sign) != c.dir {
			t.Errorf("DirectionOf(%v,%d) = %v, want %v", c.dim, c.sign, DirectionOf(c.dim, c.sign), c.dir)
		}
	}
}

func TestAllDimOrdersValidAndDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, o := range AllDimOrders {
		if !o.Valid() {
			t.Errorf("order %v invalid", o)
		}
		if seen[o.String()] {
			t.Errorf("order %v duplicated", o)
		}
		seen[o.String()] = true
	}
	if len(seen) != 6 {
		t.Fatalf("got %d dim orders, want 6", len(seen))
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	s := Shape3(5, 3, 7)
	for id := 0; id < s.NumNodes(); id++ {
		if got := s.NodeID(s.Coord(id)); got != id {
			t.Fatalf("NodeID(Coord(%d)) = %d", id, got)
		}
	}
}

func TestNeighborWraps(t *testing.T) {
	s := Shape3(4, 4, 4)
	c := NodeCoord{3, 0, 2}
	if n := s.Neighbor(c, XPos); n != (NodeCoord{0, 0, 2}) {
		t.Errorf("XPos neighbor of %v = %v", c, n)
	}
	if n := s.Neighbor(c, YNeg); n != (NodeCoord{3, 3, 2}) {
		t.Errorf("YNeg neighbor of %v = %v", c, n)
	}
}

func TestMinimalDelta(t *testing.T) {
	s := Shape3(8, 8, 8)
	cases := []struct {
		a, b  int
		delta int
		tie   bool
	}{
		{0, 0, 0, false},
		{0, 1, 1, false},
		{0, 3, 3, false},
		{0, 4, 4, true}, // exactly k/2
		{0, 5, -3, false},
		{0, 7, -1, false},
		{6, 2, 4, true},
	}
	for _, c := range cases {
		d, tie := s.MinimalDelta(NodeCoord{X: c.a}, NodeCoord{X: c.b}, DimX)
		if d != c.delta || tie != c.tie {
			t.Errorf("MinimalDelta(%d,%d) = %d,%v; want %d,%v", c.a, c.b, d, tie, c.delta, c.tie)
		}
	}
}

func TestMinimalDeltaProperty(t *testing.T) {
	s := Shape3(7, 8, 3)
	f := func(ax, bx uint8, dim uint8) bool {
		d := Dim(dim % 3)
		k := s.K[d]
		a := NodeCoord{}.With(d, int(ax)%k)
		b := NodeCoord{}.With(d, int(bx)%k)
		delta, tie := s.MinimalDelta(a, b, d)
		// Walking delta hops from a must land on b.
		if mod(a.Get(d)+delta, k) != b.Get(d) {
			return false
		}
		// |delta| must be minimal.
		abs := delta
		if abs < 0 {
			abs = -abs
		}
		if 2*abs > k {
			return false
		}
		if tie && 2*abs != k {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossesDateline(t *testing.T) {
	s := Shape3(8, 4, 2)
	if !s.CrossesDateline(7, XPos) || s.CrossesDateline(6, XPos) {
		t.Error("XPos dateline must sit between 7 and 0")
	}
	if !s.CrossesDateline(0, XNeg) || s.CrossesDateline(1, XNeg) {
		t.Error("XNeg dateline must sit between 0 and 7")
	}
	if s.CrossesDateline(0, YPos) {
		t.Error("YPos from 0 in k=4 must not cross")
	}
	one := Shape3(8, 4, 1)
	if one.CrossesDateline(0, ZPos) {
		t.Error("k=1 ring has no dateline")
	}
}

func TestHopDistanceSymmetric(t *testing.T) {
	s := Shape3(4, 6, 8)
	f := func(ai, bi uint16) bool {
		a := s.Coord(int(ai) % s.NumNodes())
		b := s.Coord(int(bi) % s.NumNodes())
		return s.HopDistance(a, b) == s.HopDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshRouterIDRoundTrip(t *testing.T) {
	for id := 0; id < NumRouters; id++ {
		if RouterID(RouterCoord(id)) != id {
			t.Fatalf("RouterID(RouterCoord(%d)) != %d", id, id)
		}
	}
}

// permutation reports whether the order names each of the four directions
// once.
func permutation(o DirOrder) bool {
	var seen [NumMeshDirs]bool
	for _, d := range o {
		if d >= NumMeshDirs || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

func TestAllDirOrders(t *testing.T) {
	orders := AllDirOrders()
	if len(orders) != 24 {
		t.Fatalf("got %d direction orders, want 24", len(orders))
	}
	seen := map[string]bool{}
	for _, o := range orders {
		if !permutation(o) {
			t.Errorf("order %v invalid", o)
		}
		seen[o.String()] = true
	}
	if len(seen) != 24 {
		t.Fatalf("got %d distinct orders, want 24", len(seen))
	}
	if !permutation(DefaultDirOrder) {
		t.Error("DefaultDirOrder invalid")
	}
}

// TestNextMeshDirReachesDestination: following NextMeshDir from a under any
// direction order stays on the mesh and reaches b in the minimal hop count.
func TestNextMeshDirReachesDestination(t *testing.T) {
	for _, o := range AllDirOrders() {
		for ai := 0; ai < NumRouters; ai++ {
			for bi := 0; bi < NumRouters; bi++ {
				a, b := RouterCoord(ai), RouterCoord(bi)
				cur, hops := a, 0
				for d, ok := o.NextMeshDir(cur, b); ok; d, ok = o.NextMeshDir(cur, b) {
					next, on := d.step(cur)
					if !on {
						t.Fatalf("order %v: route %v->%v walks off mesh at %v going %v", o, a, b, cur, d)
					}
					cur = next
					hops++
				}
				if cur != b {
					t.Fatalf("order %v: route %v->%v ends at %v", o, a, b, cur)
				}
				if want := abs(a.U-b.U) + abs(a.V-b.V); hops != want {
					t.Fatalf("order %v: route %v->%v has %d hops, want minimal %d", o, a, b, hops, want)
				}
			}
		}
	}
}

func TestChipInvariants(t *testing.T) {
	c := DefaultChip()

	// Port limits and pairing.
	for ri := range c.Routers {
		r := &c.Routers[ri]
		if len(r.Ports) == 0 || len(r.Ports) > MaxRouterPorts {
			t.Errorf("router %v has %d ports", r.Coord, len(r.Ports))
		}
		for pi := range r.Ports {
			p := &r.Ports[pi]
			if p.OutChan == p.InChan {
				t.Errorf("router %v port %d: in == out channel", r.Coord, pi)
			}
			out := &c.IntraChans[p.OutChan]
			if out.From != routerLoc(r.Coord) {
				t.Errorf("router %v port %d: out channel from %v", r.Coord, pi, out.From)
			}
			in := &c.IntraChans[p.InChan]
			if in.To != routerLoc(r.Coord) {
				t.Errorf("router %v port %d: in channel to %v", r.Coord, pi, in.To)
			}
		}
	}

	// Figure 1 adapter placements from the paper's examples.
	if c.AdapterAt(AdapterID{YPos, 0}).Router != (MeshCoord{0, 2}) {
		t.Errorf("Y+/0 adapter at %v, want R0,2 (paper example route Y0+ -> R0,2)", c.AdapterAt(AdapterID{YPos, 0}).Router)
	}
	if c.AdapterAt(AdapterID{YNeg, 0}).Router != (MeshCoord{0, 2}) {
		t.Error("Y-/0 adapter must share R0,2 so Y through-traffic crosses one router")
	}
	if c.AdapterAt(AdapterID{XNeg, 1}).Router != (MeshCoord{3, 0}) {
		t.Errorf("X-/1 adapter at %v, want R3,0 (paper example X1- -> R3,0)", c.AdapterAt(AdapterID{XNeg, 1}).Router)
	}
	if c.AdapterAt(AdapterID{XPos, 1}).Router != (MeshCoord{0, 0}) {
		t.Errorf("X+/1 adapter at %v, want R0,0", c.AdapterAt(AdapterID{XPos, 1}).Router)
	}

	// Skip channels connect the X-through corners.
	if p, ok := c.SkipPartner(MeshCoord{3, 0}); !ok || p != (MeshCoord{0, 0}) {
		t.Errorf("skip partner of R3,0 = %v,%v; want R0,0", p, ok)
	}
	if p, ok := c.SkipPartner(MeshCoord{0, 3}); !ok || p != (MeshCoord{3, 3}) {
		t.Errorf("skip partner of R0,3 = %v,%v; want R3,3", p, ok)
	}
	if _, ok := c.SkipPartner(MeshCoord{1, 1}); ok {
		t.Error("interior router must not have a skip port")
	}

	// Component counts match Table 1.
	if len(c.Endpoints) != 23 {
		t.Errorf("endpoint count %d, want 23", len(c.Endpoints))
	}
	if len(c.Adapters) != 12 {
		t.Errorf("adapter count %d, want 12", len(c.Adapters))
	}

	// Every router hosts a core endpoint.
	seen := map[int]bool{}
	for ri := 0; ri < NumRouters; ri++ {
		ep := c.CoreEndpoint(RouterCoord(ri))
		if c.Endpoints[ep].Router != RouterCoord(ri) {
			t.Errorf("core endpoint %d of %v attached to %v", ep, RouterCoord(ri), c.Endpoints[ep].Router)
		}
		if seen[ep] {
			t.Errorf("endpoint %d is core for two routers", ep)
		}
		seen[ep] = true
	}

	// Group classification: mesh+endpoint links M; skip+adapter links T.
	for i := range c.IntraChans {
		ch := &c.IntraChans[i]
		isAdapterLink := ch.From.Kind == LocAdapter || ch.To.Kind == LocAdapter
		isEndpointLink := ch.From.Kind == LocEndpoint || ch.To.Kind == LocEndpoint
		switch {
		case isAdapterLink && ch.Group != GroupT:
			t.Errorf("channel %s: adapter link must be T-group", ch.Name)
		case isEndpointLink && ch.Group != GroupM:
			t.Errorf("channel %s: endpoint link must be M-group", ch.Name)
		}
	}
}

func TestMachineChannelIDs(t *testing.T) {
	m := MustMachine(Shape3(2, 3, 2))
	seen := map[int]bool{}
	for n := 0; n < m.NumNodes(); n++ {
		for ci := 0; ci < m.NumIntraChans(); ci++ {
			id := m.IntraChanID(n, ci)
			if seen[id] {
				t.Fatalf("duplicate channel id %d", id)
			}
			seen[id] = true
			if m.IsTorusChan(id) {
				t.Fatalf("intra channel id %d classified as torus", id)
			}
			gotN, gotC := m.IntraChanOf(id)
			if want := &m.Chip.IntraChans[ci]; gotN != n || gotC != want {
				t.Fatalf("IntraChanOf(%d) = %d,%s; want %d,%s", id, gotN, gotC.Name, n, want.Name)
			}
		}
		for d := Direction(0); d < NumDirections; d++ {
			for s := 0; s < NumSlices; s++ {
				id := m.TorusChanID(n, d, s)
				if seen[id] {
					t.Fatalf("duplicate channel id %d", id)
				}
				seen[id] = true
				if !m.IsTorusChan(id) {
					t.Fatalf("torus channel id %d not classified as torus", id)
				}
				gotN, gotA := m.TorusChanOf(id)
				if gotN != n || gotA != (AdapterID{d, s}) {
					t.Fatalf("TorusChanOf(%d) mismatch", id)
				}
				if m.ChanGroup(id) != GroupT {
					t.Fatalf("torus channel %d not in T-group", id)
				}
			}
		}
	}
	if len(seen) != m.NumChannels() {
		t.Fatalf("enumerated %d channels, NumChannels() = %d", len(seen), m.NumChannels())
	}
}

func TestTorusDest(t *testing.T) {
	m := MustMachine(Shape3(4, 4, 4))
	src := m.Shape.NodeID(NodeCoord{3, 1, 2})
	dst, ad := m.TorusDest(src, XPos, 1)
	if m.Shape.Coord(dst) != (NodeCoord{0, 1, 2}) {
		t.Errorf("TorusDest node = %v", m.Shape.Coord(dst))
	}
	if ad != (AdapterID{XNeg, 1}) {
		t.Errorf("TorusDest adapter = %v, want X-/1", ad)
	}
}

// TestEndpointIndexRoundTrip: EndpointIndex numbers the machine's endpoints
// densely, each index in [0, NumEndpointsTotal) exactly once.
func TestEndpointIndexRoundTrip(t *testing.T) {
	m := MustMachine(Shape3(2, 2, 2))
	seen := make([]bool, m.NumEndpointsTotal())
	for n := 0; n < m.NumNodes(); n++ {
		for ep := 0; ep < NumEndpoints; ep++ {
			i := m.EndpointIndex(NodeEp{Node: n, Ep: ep})
			if i < 0 || i >= len(seen) || seen[i] {
				t.Fatalf("endpoint n%d.E%d has index %d: out of range or taken", n, ep, i)
			}
			seen[i] = true
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
