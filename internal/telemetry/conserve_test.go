package telemetry_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// TestTelemetryConservation runs a uniform random burst under both the
// invariant suite and the telemetry collector and audits the report against
// independent sources of truth:
//
//   - per-channel flit/packet totals equal the fabric's own counters, and
//     the windowed series sums back to the lifetime total;
//   - the run quiesces, so endpoint egress packets equal the injected count
//     (injected minus in-flight, with in-flight zero);
//   - every packet send is attributable to a recorded arbiter grant;
//   - per-adapter torus flits agree with the analytic loadcalc prediction
//     within sampling tolerance.
func TestTelemetryConservation(t *testing.T) {
	shape := topo.Shape3(3, 3, 2)
	cfg := machine.DefaultConfig(shape)
	cfg.Check = true
	var report *telemetry.Report
	cfg.Telemetry = &telemetry.Options{Sink: func(r *telemetry.Report) { report = r }}
	m := machine.MustNew(cfg)
	tm := m.Topo
	cores := tm.Chip.CoreEndpoints()
	l := loadcalc.Compute(m.RouteConfig(), cores, traffic.Uniform{}.Flows(tm), route.ClassRequest)

	const batch = 48
	rng := rand.New(rand.NewSource(41))
	total := uint64(0)
	for n := 0; n < tm.NumNodes(); n++ {
		for _, ep := range cores {
			src := topo.NodeEp{Node: n, Ep: ep}
			for i := 0; i < batch; i++ {
				dst := traffic.Uniform{}.Dest(tm, src, rng)
				m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
				total++
			}
		}
	}
	if _, err := m.RunUntilDelivered(total, 5_000_000); err != nil {
		t.Fatal(err)
	}
	// FinishChecks runs the invariant suite's own conservation audit (flits
	// in == flits out) and then finalizes telemetry into the sink.
	if err := m.FinishChecks(); err != nil {
		t.Fatal(err)
	}
	if report == nil {
		t.Fatal("telemetry sink never ran")
	}

	// Channels are reported in global id order; everything below indexes by
	// id.
	for i, cs := range report.Channels {
		if cs.ID != i {
			t.Fatalf("channel %d reported out of order (id %d)", i, cs.ID)
		}
	}

	// Per-channel totals are exactly the fabric counters, and the windowed
	// series (torus channels) sums back to the lifetime total.
	for _, cs := range report.Channels {
		ch := m.Chan(cs.ID)
		if cs.Flits != ch.FlitsSent() || cs.Packets != ch.Pkts {
			t.Fatalf("channel %d (%s): report %d flits / %d pkts, fabric %d / %d",
				cs.ID, cs.Name, cs.Flits, cs.Packets, ch.FlitsSent(), ch.Pkts)
		}
		if cs.Torus && cs.WindowFlitTotal() != cs.Flits {
			t.Errorf("channel %d (%s): window series sums to %d, lifetime %d",
				cs.ID, cs.Name, cs.WindowFlitTotal(), cs.Flits)
		}
	}

	// The drained run left nothing in flight, so the endpoint->router
	// channels carried each injected packet exactly once.
	var epOut uint64
	for n := 0; n < tm.NumNodes(); n++ {
		for ep := range tm.Chip.Endpoints {
			epOut += report.Channels[tm.IntraChanID(n, tm.Chip.Endpoints[ep].ToRouter)].Packets
		}
	}
	if epOut != m.Injected() || m.Injected() != m.Delivered() {
		t.Errorf("endpoint egress packets %d, injected %d, delivered %d",
			epOut, m.Injected(), m.Delivered())
	}

	// Grant attribution: every torus packet send is one adapter egress
	// grant, and every mesh packet send is an endpoint injection, an
	// adapter ingress grant, or a router SA2 transfer.
	var meshPkts, torusPkts uint64
	for _, cs := range report.Channels {
		if cs.Torus {
			torusPkts += cs.Packets
		} else {
			meshPkts += cs.Packets
		}
	}
	grants := map[string]uint64{}
	for _, s := range report.ArbSummary {
		grants[s.Kind] = s.TotalGrants
	}
	if grants["adapter-egress"] != torusPkts {
		t.Errorf("adapter egress grants %d, torus packet sends %d", grants["adapter-egress"], torusPkts)
	}
	if got := epOut + grants["adapter-ingress"] + grants["sa2"]; got != meshPkts {
		t.Errorf("mesh packet sends %d, attributed %d (inject %d + ingress %d + sa2 %d)",
			meshPkts, got, epOut, grants["adapter-ingress"], grants["sa2"])
	}
	// SA1 nominates, SA2 transfers: a nomination is only consumed by a
	// transfer, so nominations can exceed transfers but never trail them.
	if grants["sa1"] < grants["sa2"] {
		t.Errorf("sa1 nominations %d < sa2 transfers %d", grants["sa1"], grants["sa2"])
	}

	// Per-adapter torus flit totals match the analytic loadcalc prediction
	// for uniform random traffic within sampling tolerance.
	var simTorus float64
	for ai := 0; ai < topo.NumChannelAdapters; ai++ {
		ad := topo.AdapterByIndex(ai)
		var flits uint64
		for n := 0; n < tm.NumNodes(); n++ {
			flits += report.Channels[tm.TorusChanID(n, ad.Dir, ad.Slice)].Flits
		}
		want := l.Torus[ai] * float64(tm.NumNodes()) * batch
		simTorus += float64(flits)
		if want == 0 {
			if flits != 0 {
				t.Errorf("adapter %v: %d flits on an analytically unloaded adapter", ad, flits)
			}
			continue
		}
		if rel := math.Abs(float64(flits)-want) / want; rel > 0.08 {
			t.Errorf("adapter %v: telemetry %d flits vs analytic %.0f (%.1f%% off)", ad, flits, want, 100*rel)
		}
	}
	simHops := simTorus / float64(total)
	if rel := math.Abs(simHops-l.MeanTorusHops) / l.MeanTorusHops; rel > 0.03 {
		t.Errorf("mean torus hops: telemetry %.3f vs analytic %.3f (%.1f%% off)", simHops, l.MeanTorusHops, 100*rel)
	}

	// Occupancy and trace sanity.
	if len(report.VCOccupancy) == 0 {
		t.Error("no VC occupancy stats recorded")
	}
	for _, o := range report.VCOccupancy {
		if o.Samples == 0 || o.MeanFlits < 0 || float64(o.MaxFlits) < o.MeanFlits || o.P99Flits < o.P50Flits {
			t.Errorf("inconsistent occupancy stat: %+v", o)
		}
	}
	// The first four packets injected at node 0 are traced, named 1..4.
	if len(report.Traces) != 4 {
		t.Errorf("trace budget 4, captured %d", len(report.Traces))
	}
	ids := map[uint64]bool{}
	for _, tr := range report.Traces {
		ids[tr.ID] = true
		if len(tr.Events) == 0 || tr.DeliveredAt < tr.InjectedAt || !strings.HasPrefix(tr.Src, "n0:") {
			t.Errorf("bad trace %d from %s: %d events over [%d,%d]", tr.ID, tr.Src, len(tr.Events), tr.InjectedAt, tr.DeliveredAt)
		}
	}
	if !ids[1] || !ids[4] || len(ids) != len(report.Traces) {
		t.Errorf("trace ids %v, want 1..4", ids)
	}
}

// TestWindowMerging runs a sparse workload past 64 windows of 1 024 cycles:
// the collector must have merged its series once, to 2 048-cycle windows,
// and every torus channel's series must still sum to its lifetime flits.
func TestWindowMerging(t *testing.T) {
	cfg := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	var report *telemetry.Report
	cfg.Telemetry = &telemetry.Options{Sink: func(r *telemetry.Report) { report = r }}
	m := machine.MustNew(cfg)
	tm := m.Topo
	rng := rand.New(rand.NewSource(5))
	src := topo.NodeEp{Node: 0, Ep: tm.Chip.CoreEndpoints()[0]}
	for m.Engine.Now() < 100_000 {
		for i := 0; i < 8; i++ {
			dst := traffic.Uniform{}.Dest(tm, src, rng)
			m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
		}
		m.Engine.Run(8192)
	}
	if err := m.FinishChecks(); err != nil {
		t.Fatal(err)
	}
	if report.WindowCycles != 2048 {
		t.Errorf("window_cycles = %d after %d cycles, want 2048", report.WindowCycles, report.Cycles)
	}
	var flits uint64
	for _, cs := range report.Channels {
		if !cs.Torus {
			continue
		}
		flits += cs.Flits
		if len(cs.WindowFlits) <= 32 || cs.WindowFlitTotal() != cs.Flits {
			t.Fatalf("channel %s: %d windows summing to %d, lifetime %d", cs.Name, len(cs.WindowFlits), cs.WindowFlitTotal(), cs.Flits)
		}
	}
	if flits == 0 {
		t.Error("no torus traffic to merge")
	}
}
