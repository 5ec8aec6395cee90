package area

import (
	"math"
	"testing"

	"anton2/internal/route"
)

func TestTable1Reference(t *testing.T) {
	b := Compute(Default())
	t1 := b.Table1()
	want := [NumComponents]float64{Router: 3.4, EndpointAdapter: 1.1, ChannelAdapter: 4.7}
	for c := Component(0); c < NumComponents; c++ {
		if math.Abs(t1[c]-want[c]) > 0.15 {
			t.Errorf("%v die share = %.2f%%, want ~%.1f%%", c, t1[c], want[c])
		}
	}
	total := t1[Router] + t1[EndpointAdapter] + t1[ChannelAdapter]
	if total >= 10 {
		t.Errorf("network occupies %.2f%% of die; the paper reports under 10%%", total)
	}
}

func TestTable2Reference(t *testing.T) {
	b := Compute(Default())
	_, total := b.Table2()
	want := map[Category]float64{
		Queues: 46.6, Reduction: 9.6, Link: 8.9, ConfigRegs: 8.6,
		Debug: 7.8, Misc: 7.3, Multicast: 5.7, Arbiters: 5.4,
	}
	for k, w := range want {
		if math.Abs(total[k]-w) > 0.5 {
			t.Errorf("%v = %.2f%% of network area, want ~%.1f%%", k, total[k], w)
		}
	}
	if total[Queues] < total[Arbiters] {
		t.Error("queues must dominate arbiters")
	}
	var sum float64
	for k := Category(0); k < NumCategories; k++ {
		sum += total[k]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("Table 2 totals %.2f%%, want 100%%", sum)
	}
}

// TestBaselineSchemeCostsMoreQueueArea quantifies the Section 2.5 claim:
// the prior 2n-VC approach needs substantially more queue area, since queue
// area is roughly proportional to VC count.
func TestBaselineSchemeCostsMoreQueueArea(t *testing.T) {
	anton := Compute(Default())
	cfg := Default()
	cfg.Scheme = route.BaselineScheme{}
	baseline := Compute(cfg)

	aQ := anton.ByComponent[Router][Queues] + anton.ByComponent[ChannelAdapter][Queues]
	bQ := baseline.ByComponent[Router][Queues] + baseline.ByComponent[ChannelAdapter][Queues]
	if bQ <= aQ {
		t.Fatalf("baseline queue area %.1f not larger than Anton %.1f", bQ, aQ)
	}
	growth := bQ/aQ - 1
	// T-group VCs grow 12/8 = 1.5x; blended across M-group ports the
	// growth must land between 20%% and 50%%.
	if growth < 0.2 || growth > 0.5 {
		t.Errorf("baseline queue growth = %.1f%%, expected 20-50%%", growth*100)
	}
	// The whole-network figure EXPERIMENTS.md "Ablations" quotes (the last
	// line of `anton2bench table2`).
	if g := baseline.NetworkTotal()/anton.NetworkTotal() - 1; math.Abs(g-0.133) > 0.0005 {
		t.Errorf("baseline network-area growth = %.2f%%, want 13.3%%", g*100)
	}
}

func TestArbiterAreaScalesWithPatterns(t *testing.T) {
	one := Default()
	one.Patterns = 1
	four := Default()
	four.Patterns = 4
	a1 := Compute(one).ByComponent[Router][Arbiters]
	a4 := Compute(four).ByComponent[Router][Arbiters]
	if a4 <= a1 {
		t.Error("more weight sets must cost more arbiter area")
	}
	// Storage dominates (~3/4 of arbiter area per Section 4.4).
	if a4/a1 > 2.5 {
		t.Errorf("4-pattern arbiter %.2fx larger; storage scaling looks wrong", a4/a1)
	}
}

func TestMulticastAreaScalesWithEntries(t *testing.T) {
	small := Default()
	small.MulticastEntries = 128
	big := Default()
	big.MulticastEntries = 512
	s := Compute(small).ByComponent[EndpointAdapter][Multicast]
	l := Compute(big).ByComponent[EndpointAdapter][Multicast]
	if math.Abs(l/s-4) > 1e-9 {
		t.Errorf("multicast area ratio = %g, want 4 (table-dominated)", l/s)
	}
}

func TestComponentCounts(t *testing.T) {
	if Router.Count() != 16 || EndpointAdapter.Count() != 23 || ChannelAdapter.Count() != 12 {
		t.Error("component counts must match Table 1")
	}
}
