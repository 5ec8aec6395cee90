package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// TestShardedFaultFatalMatchesSerial: a run that dies of a fatal fault
// returns the error a serial run returns, however its shards are stepped.
// With 32 of a 4x4x4 machine's torus links failed, vcless cannot route some
// uniform pairs, so endpoints of different shards raise in the same cycle and
// their workers race for the lock; the least (cycle, component id) must win.
func TestShardedFaultFatalMatchesSerial(t *testing.T) {
	run := func(seed uint64, shards int, parallel func(now uint64) bool) error {
		mc := machine.DefaultConfig(topo.Shape3(4, 4, 4))
		mc.Scheme, mc.Fault = route.VClessScheme{}, &fault.Spec{FailLinks: 32}
		mc.Seed, mc.Shards = seed, shards
		machineBuilt = func(m *machine.Machine) { m.Engine.ForceParallelForTest(parallel) }
		defer func() { machineBuilt = nil }()
		_, err := RunThroughput(ThroughputConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: 8})
		return err
	}
	modes := []struct {
		name     string
		parallel func(now uint64) bool
	}{
		{"parallel", func(uint64) bool { return true }},
		{"alternating", func(now uint64) bool { return now&1 == 1 }},
	}
	for seed := uint64(4); seed <= 6; seed++ {
		want := run(seed, 1, nil)
		if want == nil {
			t.Fatalf("seed %d: the serial run did not fail", seed)
		}
		for _, mode := range modes {
			if got := run(seed, 4, mode.parallel); got == nil || got.Error() != want.Error() {
				t.Errorf("seed %d, 4 shards %s: %v\nwant the serial run's %v", seed, mode.name, got, want)
			}
		}
	}
}

// TestFaultSweepDegradesGracefully runs a small corruption-rate sweep and
// checks the shape of the results: every point completes, delivers the full
// batch, and records a detected-equals-injected corruption ledger.
func TestFaultSweepDegradesGracefully(t *testing.T) {
	rates := []float64{0, 0.01, 0.05}
	f, _ := FamilyByName("faultsweep")
	a := Axes{Shape: topo.Shape3(2, 2, 2), Rates: rates, Batch: 24}
	if err := f.Check(&a); err != nil {
		t.Fatal(err)
	}
	pts := values[FaultPoint](t, f.Jobs(a, func(*machine.Config) {}))
	if len(pts) != len(rates) {
		t.Fatalf("got %d points, want %d", len(pts), len(rates))
	}
	for i, p := range pts {
		if p.CorruptRate != rates[i] {
			t.Errorf("point %d corrupt rate = %g, want %g", i, p.CorruptRate, rates[i])
		}
		if p.Throughput <= 0 || p.Cycles == 0 {
			t.Errorf("point %d measured nothing: %+v", i, p)
		}
		if p.MeanLatency <= 0 || p.P99Latency < p.MeanLatency {
			t.Errorf("point %d latency stats inconsistent: mean=%g p99=%g",
				i, p.MeanLatency, p.P99Latency)
		}
		if rates[i] > 0 {
			if p.Counters["corrupt_injected"] == 0 {
				t.Errorf("point %d at rate %g injected no corruption", i, rates[i])
			}
			if p.Counters["corrupt_detected"] != p.Counters["corrupt_injected"] {
				t.Errorf("point %d: detected %d != injected %d", i,
					p.Counters["corrupt_detected"], p.Counters["corrupt_injected"])
			}
		}
	}
	// Retransmission overhead cannot make the fault-afflicted run finish
	// faster than the fault-free one at the same batch.
	if pts[2].Cycles < pts[0].Cycles {
		t.Errorf("5%% corruption finished faster than fault-free: %d < %d cycles",
			pts[2].Cycles, pts[0].Cycles)
	}
}

// TestFaultFreeSpecsUnchanged is the cache-key half of the bit-identity
// guard: with no fault spec configured, every experiment family's canonical
// spec string must not mention the fault layer at all, so artifacts and
// cache entries produced before the fault layer existed stay valid.
func TestFaultFreeSpecsUnchanged(t *testing.T) {
	mc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	specs := map[string]string{
		"throughput": throughputSpec(ThroughputConfig{
			Machine: mc, Pattern: traffic.Uniform{}, Batch: 32,
		}).Canonical(),
		"blend": blendSpec(BlendConfig{
			Machine: mc, ForwardFraction: 0.5, Batch: 32,
		}).Canonical(),
		"latency": latencySpec(LatencyConfig{
			Machine: mc, PingPongs: 4,
		}).Canonical(),
		"energy": energySpec(EnergyConfig{
			Machine: mc, RateNum: 1, RateDen: 8, Flits: 4,
		}).Canonical(),
		"faultsweep": faultSpec(FaultConfig{
			Machine: mc, Pattern: traffic.Uniform{}, Batch: 32,
		}).Canonical(),
	}
	for family, spec := range specs {
		if strings.Contains(spec, "fault=") {
			t.Errorf("%s spec leaks a fault key with Fault nil: %s", family, spec)
		}
	}
	// And the converse: a configured fault spec must key the cache.
	fc := FaultConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: 32}
	fc.Machine.Fault = &fault.Spec{CorruptRate: 0.01}
	with := faultSpec(fc).Canonical()
	if !strings.Contains(with, "fault=") {
		t.Errorf("configured fault spec missing from cache key: %s", with)
	}
	if with == specs["faultsweep"] {
		t.Error("fault-on and fault-off faultsweep specs collide")
	}
}

// TestFaultOffArtifactBitIdentical is the artifact half of the bit-identity
// guard: a throughput job with the injector absent must produce byte-for-byte
// identical canonical artifacts across independent executions.
func TestFaultOffArtifactBitIdentical(t *testing.T) {
	cfg := ThroughputConfig{
		Machine: machine.DefaultConfig(topo.Shape3(2, 2, 2)),
		Pattern: traffic.Uniform{},
		Batch:   24,
	}
	run := func() []byte {
		rs := exp.Run([]exp.Job{ThroughputJob(cfg)}, exp.Serial())
		if err := exp.FirstErr(rs); err != nil {
			t.Fatal(err)
		}
		b, err := exp.MarshalCanonical(rs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("fault-off artifacts differ across runs:\n%s\n---\n%s", a, b)
	}
}

// TestCheckChangesNoReport: the invariant suite's end-of-run drain steps the
// machine on, fault layer included, so everything a point reports is read
// before it. A faultsweep point under stalls and credit loss — whose counters
// keep moving while the network drains — gives the same canonical artifact
// and the same telemetry report with Check on and off.
func TestCheckChangesNoReport(t *testing.T) {
	run := func(check bool) (artifact, report []byte) {
		dir := t.TempDir()
		mc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
		mc.Fault = &fault.Spec{StallRate: 0.001, CreditLossRate: 0.01}
		mc.Check = check
		mc.Telemetry = &telemetry.Options{Dir: dir, Name: "point"}
		rs := exp.Run([]exp.Job{FaultJob(FaultConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: 16})}, exp.Serial())
		if err := exp.FirstErr(rs); err != nil {
			t.Fatal(err)
		}
		artifact, err := exp.MarshalCanonical(rs)
		if err != nil {
			t.Fatal(err)
		}
		if report, err = os.ReadFile(filepath.Join(dir, "point.json")); err != nil {
			t.Fatal(err)
		}
		return artifact, report
	}
	offArt, offRep := run(false)
	onArt, onRep := run(true)
	if !bytes.Equal(offArt, onArt) {
		t.Errorf("canonical artifact changes with Check on:\n off %s\n on  %s", offArt, onArt)
	}
	if !bytes.Equal(offRep, onRep) {
		t.Errorf("telemetry report changes with Check on (%d vs %d bytes)", len(offRep), len(onRep))
	}
}
