package workload_test

import (
	"reflect"
	"testing"

	"anton2/internal/machine"
	"anton2/internal/topo"
	"anton2/internal/trace"
	"anton2/internal/workload"
)

func smallSpec() workload.Spec {
	return workload.Spec{HaloPackets: 4, HaloBurst: 2, Multicasts: 2, ReducePackets: 1, Timesteps: 2}
}

func buildMachine(t *testing.T, shape topo.TorusShape, spec workload.Spec, mutate func(*machine.Config)) *machine.Machine {
	t.Helper()
	tm, err := topo.NewMachine(shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(shape)
	cfg.Multicast = spec.Tables(tm)
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runOnce(t *testing.T, shape topo.TorusShape, spec workload.Spec, rec *trace.Recorder, mutate func(*machine.Config)) workload.Result {
	t.Helper()
	m := buildMachine(t, shape, spec, mutate)
	res, err := workload.Run(m, spec, rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end := m.Engine.Now(); !m.Drain() || m.Engine.Now() != end {
		t.Fatal("fabric not quiescent after the final phase barrier")
	}
	return res
}

// TestRunPhaseStructure: a run yields one result row per (timestep, phase)
// with contiguous non-overlapping windows and full delivery.
func TestRunPhaseStructure(t *testing.T) {
	spec := smallSpec()
	res := runOnce(t, topo.Shape3(2, 2, 2), spec, nil, nil)
	wantPhases := 3 * spec.Timesteps
	if len(res.Phases) != wantPhases {
		t.Fatalf("got %d phase rows, want %d", len(res.Phases), wantPhases)
	}
	names := []string{"halo", "multicast", "reduce"}
	for i, pr := range res.Phases {
		if pr.Timestep != i/3 || pr.Phase != names[i%3] {
			t.Errorf("row %d = (t%d, %s), want (t%d, %s)", i, pr.Timestep, pr.Phase, i/3, names[i%3])
		}
		if pr.Injected == 0 || pr.Delivered == 0 {
			t.Errorf("row %d (%s): injected=%d delivered=%d, want both > 0", i, pr.Phase, pr.Injected, pr.Delivered)
		}
		if pr.Cycles != pr.EndCycle-pr.StartCycle || pr.Cycles == 0 {
			t.Errorf("row %d (%s): cycles=%d for window [%d, %d]", i, pr.Phase, pr.Cycles, pr.StartCycle, pr.EndCycle)
		}
		if i > 0 && pr.StartCycle != res.Phases[i-1].EndCycle {
			t.Errorf("row %d starts at %d, previous phase quiesced at %d — phases must be contiguous",
				i, pr.StartCycle, res.Phases[i-1].EndCycle)
		}
	}
	if res.TotalCycles != res.Phases[wantPhases-1].EndCycle-res.Phases[0].StartCycle {
		t.Errorf("TotalCycles %d does not span the phase windows", res.TotalCycles)
	}
	if res.TotalNS != machine.CyclesToNS(float64(res.TotalCycles)) {
		t.Errorf("TotalNS %g inconsistent with TotalCycles %d", res.TotalNS, res.TotalCycles)
	}
}

// TestRunDeterministic: identical (config, spec) runs produce identical
// results.
func TestRunDeterministic(t *testing.T) {
	spec := smallSpec()
	a := runOnce(t, topo.Shape3(2, 2, 2), spec, nil, nil)
	b := runOnce(t, topo.Shape3(2, 2, 2), spec, nil, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRecordThenReplay is the record/replay determinism guarantee: a trace
// captured from one run, passed through the codec, and replayed on a fresh
// identically-configured machine reproduces the original per-phase cycle
// counts exactly.
func TestRecordThenReplay(t *testing.T) {
	spec := smallSpec()
	shape := topo.Shape3(2, 2, 2)
	rec := trace.NewRecorder(spec.Header(shape, 1))
	orig := runOnce(t, shape, spec, rec, nil)
	if len(rec.Trace().Events) == 0 {
		t.Fatal("recorder captured no events")
	}

	// Round-trip the capture through the codec before replaying.
	enc, err := rec.Trace().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	tr, err := trace.Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	m := buildMachine(t, shape, spec, nil)
	rep, err := workload.ReplayTrace(m, tr, 0)
	if err != nil {
		t.Fatalf("ReplayTrace: %v", err)
	}
	if len(rep.Phases) != len(orig.Phases) {
		t.Fatalf("replay produced %d phases, original %d", len(rep.Phases), len(orig.Phases))
	}
	for i := range orig.Phases {
		o, r := orig.Phases[i], rep.Phases[i]
		if o.StartCycle != r.StartCycle || o.EndCycle != r.EndCycle || o.Cycles != r.Cycles || o.Delivered != r.Delivered {
			t.Errorf("phase %d (%s): original [%d,%d] %d delivered, replay [%d,%d] %d delivered",
				i, o.Phase, o.StartCycle, o.EndCycle, o.Delivered, r.StartCycle, r.EndCycle, r.Delivered)
		}
	}
	if rep.TotalCycles != orig.TotalCycles {
		t.Errorf("replay total %d cycles, original %d", rep.TotalCycles, orig.TotalCycles)
	}
}

// TestReplayShapeMismatch: a capture refuses to replay on a different shape.
func TestReplayShapeMismatch(t *testing.T) {
	spec := smallSpec()
	rec := trace.NewRecorder(spec.Header(topo.Shape3(2, 2, 2), 1))
	runOnce(t, topo.Shape3(2, 2, 2), spec, rec, nil)
	m := buildMachine(t, topo.Shape3(4, 2, 2), spec, nil)
	if _, err := workload.ReplayTrace(m, rec.Trace(), 0); err == nil {
		t.Fatal("replay accepted a trace captured on a different shape")
	}
}

// TestRunRequiresTables: running a fanout-bearing spec on a machine without
// its multicast tables is an error, not a silent phase skip.
func TestRunRequiresTables(t *testing.T) {
	cfg := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(m, smallSpec(), nil, 0); err == nil {
		t.Fatal("Run accepted a machine without the spec's multicast tables")
	}
}

// TestTablesDedupeWrapAliases: on a radix-2 torus the ±1 plane offsets
// alias, and the compiled groups must still deliver each destination exactly
// once.
func TestTablesDedupeWrapAliases(t *testing.T) {
	tm, err := topo.NewMachine(topo.Shape3(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	tables := workload.DefaultSpec().Tables(tm)
	if len(tables) != tm.NumNodes()*topo.NumSlices {
		t.Fatalf("got %d groups, want %d", len(tables), tm.NumNodes()*topo.NumSlices)
	}
	// Radius-1 XY plane on 2x2: offsets ±1 alias, leaving 3 distinct
	// destinations around each root.
	for gid, g := range tables {
		if n := g.TotalDeliveries(); n != 3 {
			t.Errorf("group %d delivers %d destinations, want 3 (wrap aliases deduped)", gid, n)
		}
	}
}

// TestSpecCanonical: defaults are applied and the token is stable.
func TestSpecCanonical(t *testing.T) {
	if got, want := (workload.Spec{}).Canonical(), "h1.8.4-m1.2-r2-t1"; got != want {
		t.Errorf("zero spec canonical = %q, want %q", got, want)
	}
	if got, want := smallSpec().Canonical(), "h1.4.2-m1.2-r1-t2"; got != want {
		t.Errorf("small spec canonical = %q, want %q", got, want)
	}
	if err := (workload.Spec{Timesteps: -1}).Validate(); err == nil {
		t.Error("Validate accepted a negative timestep count")
	}
	if err := (workload.Spec{HaloPackets: 1 << 20}).Validate(); err == nil {
		t.Error("Validate accepted an abusive halo volume")
	}
}
