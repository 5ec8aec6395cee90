package packaging

import (
	"testing"

	"anton2/internal/topo"
)

func TestFigure2Configuration(t *testing.T) {
	// The paper's 512-node example: 8x8x8 torus = 32 backplanes in 4
	// racks.
	p, err := Build(topo.Shape3(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBackplanes() != 32 {
		t.Errorf("backplanes = %d, want 32", p.NumBackplanes())
	}
	if p.NumRacks() != 4 {
		t.Errorf("racks = %d, want 4", p.NumRacks())
	}
	if perBackplane := BackplaneX * BackplaneY * BackplaneZ; perBackplane != 16 || MaxNodes != 4096 {
		t.Errorf("%d nodecards a backplane, %d nodes at most; Figure 2 has 16 and 4096", perBackplane, MaxNodes)
	}
}

func TestConfigurationRange(t *testing.T) {
	// Smallest: one backplane, 16 ASICs.
	small, err := Build(topo.Shape3(4, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if small.NumBackplanes() != 1 || small.NumRacks() != 1 {
		t.Errorf("4x4x1: %d backplanes, %d racks", small.NumBackplanes(), small.NumRacks())
	}
	// Largest: 16x16x16 = 4096 ASICs.
	big, err := Build(topo.Shape3(16, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if big.NumBackplanes() != 256 {
		t.Errorf("16^3: %d backplanes, want 256", big.NumBackplanes())
	}
	// Non-tiling shapes are rejected.
	if _, err := Build(topo.Shape3(6, 4, 2)); err == nil {
		t.Error("6x4x2 should not tile 4x4x1 backplanes")
	}
}

func TestIntraBackplaneLinksAreTraces(t *testing.T) {
	p, err := Build(topo.Shape3(8, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	// A link inside a 4x4 tile is a trace.
	l := p.LinkFor(topo.NodeCoord{X: 1, Y: 1, Z: 0}, topo.XPos)
	if l.Medium != BackplaneTrace {
		t.Errorf("interior link medium = %v", l.Medium)
	}
	// Crossing a tile boundary is a cable.
	l = p.LinkFor(topo.NodeCoord{X: 3, Y: 0, Z: 0}, topo.XPos)
	if l.Medium == BackplaneTrace {
		t.Error("tile-boundary link should be cabled")
	}
	// Z links always leave the backplane (BackplaneZ == 1).
	l = p.LinkFor(topo.NodeCoord{X: 0, Y: 0, Z: 0}, topo.ZPos)
	if l.Medium == BackplaneTrace {
		t.Error("Z link should be cabled")
	}
}

func TestLatencyOrdering(t *testing.T) {
	trace := Link{Medium: BackplaneTrace, LengthCM: BackplaneTraceCM}
	intra := Link{Medium: IntraRackCable, LengthCM: IntraRackCableCM}
	inter := Link{Medium: InterRackCable, LengthCM: InterRackCableCM}
	if !(trace.LatencyNS() < intra.LatencyNS() && intra.LatencyNS() < inter.LatencyNS()) {
		t.Error("latency must increase with link length")
	}
	if trace.LatencyCycles() < 30 || inter.LatencyCycles() > 80 {
		t.Errorf("latencies %d..%d cycles outside plausible SerDes+wire range",
			trace.LatencyCycles(), inter.LatencyCycles())
	}
}

func TestLatencyFuncCoversAllLinks(t *testing.T) {
	p, err := Build(topo.Shape3(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	f := p.LatencyFunc()
	for n := 0; n < p.Shape.NumNodes(); n++ {
		for d := topo.Direction(0); d < topo.NumDirections; d++ {
			for s := 0; s < topo.NumSlices; s++ {
				if lat := f(n, topo.AdapterID{Dir: d, Slice: s}); lat == 0 {
					t.Fatalf("zero latency for node %d %v", n, d)
				}
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	p, err := Build(topo.Shape3(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	total := 0
	for _, ms := range stats {
		total += ms.Links
	}
	// 512 nodes x 6 directions x 2 slices directed links.
	if total != 512*12 {
		t.Errorf("total links = %d, want %d", total, 512*12)
	}
	if stats[BackplaneTrace].Links == 0 || stats[InterRackCable].Links == 0 {
		t.Error("expected links in every medium for an 8x8x8 machine")
	}
	// Within a 4x4x1 backplane: the 24 intra-tile X/Y links per
	// backplane... sanity: traces strictly fewer than total.
	if stats[BackplaneTrace].Links >= total {
		t.Error("trace count implausible")
	}
}
