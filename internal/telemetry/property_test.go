package telemetry_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"anton2/internal/core"
	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/power"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// familyJobs builds a small sweep covering all four experiment families
// (throughput, blend, latency, energy) on the given shape; energy uses the
// single-node machine its two-route subtraction needs. tel supplies each
// job's telemetry options: nil for an off run, fresh Options for an on run.
func familyJobs(shape topo.TorusShape, tel func() *telemetry.Options) []exp.Job {
	var jobs []exp.Job
	for _, b := range []int{2, 4} {
		mc := machine.DefaultConfig(shape)
		mc.Telemetry = tel()
		jobs = append(jobs, core.ThroughputJob(core.ThroughputConfig{
			Machine: mc, Pattern: traffic.Uniform{}, Batch: b,
		}))
	}
	for _, f := range []float64{0, 1} {
		mc := machine.DefaultConfig(shape)
		mc.Telemetry = tel()
		jobs = append(jobs, core.BlendJob(core.BlendConfig{
			Machine: mc, Weights: core.WeightsBoth, ForwardFraction: f, Batch: 2,
		}))
	}
	lcfg := core.DefaultLatencyConfig(shape)
	lcfg.PingPongs, lcfg.PairsPerHop = 2, 2
	lcfg.Machine.Telemetry = tel()
	jobs = append(jobs, core.LatencyJob(lcfg))
	for _, r := range [][2]int{{1, 2}, {1, 1}} {
		mc := machine.DefaultConfig(topo.Shape3(1, 1, 1))
		mc.Telemetry = tel()
		jobs = append(jobs, core.EnergyJob(core.EnergyConfig{
			Machine: mc, Model: power.PaperModel,
			RateNum: r[0], RateDen: r[1],
			Payload: core.PayloadRandom, Flits: 200,
		}))
	}
	return jobs
}

// TestTelemetryBitIdentity: a full 4x4x4 sweep with telemetry enabled must
// produce byte-identical experiment results to a telemetry-off run, for all
// four experiment families, and the telemetry toggle must not leak into the
// experiment specs (identical canonical forms and cache keys, hence
// identical derived machine seeds).
func TestTelemetryBitIdentity(t *testing.T) {
	shape := topo.Shape3(4, 4, 4)
	if testing.Short() {
		// Tornado shifts K/2-1 per dimension, so radix 2 would degenerate
		// the blend family to self-addressed traffic; radix 4 in X keeps
		// every family live at -short scale.
		shape = topo.Shape3(4, 2, 2)
	}
	dir := t.TempDir()
	seq := 0
	off := familyJobs(shape, func() *telemetry.Options { return nil })
	on := familyJobs(shape, func() *telemetry.Options {
		seq++
		return &telemetry.Options{
			// Small windows with a low merge bound exercise the adaptive
			// window-merging path during the runs.
			WindowCycles: 64, MaxWindows: 4,
			TracePackets: 2, OccBins: 8,
			Dir: dir, Name: fmt.Sprintf("p%02d", seq),
		}
	})
	if len(off) != len(on) {
		t.Fatalf("job lists differ: %d vs %d", len(off), len(on))
	}
	for i := range off {
		if oc, nc := off[i].Spec.Canonical(), on[i].Spec.Canonical(); oc != nc {
			t.Errorf("job %d: spec changed with telemetry on:\n  off %s\n  on  %s", i, oc, nc)
		}
		if off[i].Spec.Hash() != on[i].Spec.Hash() {
			t.Errorf("job %d: spec hash (cache key) changed with telemetry on", i)
		}
	}

	rsOff := exp.Run(off, exp.Serial())
	rsOn := exp.Run(on, exp.Serial())
	if err := exp.FirstErr(rsOff); err != nil {
		t.Fatal(err)
	}
	if err := exp.FirstErr(rsOn); err != nil {
		t.Fatal(err)
	}
	bOff, err := exp.MarshalCanonical(rsOff)
	if err != nil {
		t.Fatal(err)
	}
	bOn, err := exp.MarshalCanonical(rsOn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bOff, bOn) {
		t.Errorf("telemetry perturbed the sweep: canonical artifacts differ (%d vs %d bytes)", len(bOff), len(bOn))
	}

	// Every telemetry-on job must have emitted its report artifact.
	for i := 1; i <= seq; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("p%02d.json", i))); err != nil {
			t.Errorf("job artifact missing: %v", err)
		}
	}
}

// TestTelemetryEngineParity: telemetry reports — windowed per-channel flit
// series, occupancy histograms, grant shares, cycle counts — must be
// byte-identical between the scan engine and the active-set engine. The
// collector's engine observer clamps the active engine's idle-cycle jumps to
// its window boundaries, so every sampling window closes on exactly the same
// cycle in both modes; this test pins that contract end to end through a
// saturated workload (no idle cycles to jump) and through a checked sparse
// one (one packet in flight: nearly every cycle is a jump, with the invariant
// suite's scans interleaved).
func TestTelemetryEngineParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		job  func(mc machine.Config) exp.Job
	}{
		{"saturated fig9 point", func(mc machine.Config) exp.Job {
			return core.ThroughputJob(core.ThroughputConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: 4})
		}},
		{"checked sparse fig11 point", func(mc machine.Config) exp.Job {
			mc.Check = true
			cfg := core.DefaultLatencyConfig(mc.Shape)
			cfg.Machine, cfg.PingPongs, cfg.PairsPerHop = mc, 4, 2
			return core.LatencyJob(cfg)
		}},
	} {
		report := func(engine string) []byte {
			dir := t.TempDir()
			mc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
			mc.Engine = engine
			mc.Telemetry = &telemetry.Options{
				WindowCycles: 64, MaxWindows: 4,
				TracePackets: 2, OccBins: 8,
				Dir: dir, Name: "parity",
			}
			rs := exp.Run([]exp.Job{tc.job(mc)}, exp.Serial())
			if err := exp.FirstErr(rs); err != nil {
				t.Fatalf("%s, engine %q: %v", tc.name, engine, err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "parity.json"))
			if err != nil {
				t.Fatalf("%s, engine %q: %v", tc.name, engine, err)
			}
			return data
		}
		scan, active := report(machine.EngineScan), report(machine.EngineActive)
		if !bytes.Equal(scan, active) {
			t.Errorf("%s: telemetry reports diverge between engines (%d vs %d bytes)", tc.name, len(scan), len(active))
		}
	}
}
