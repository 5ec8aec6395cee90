package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"anton2/internal/ckpt"
	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/workload"
)

// The batch resume tests interrupt a run the way kill -9 would: a runProbe,
// armed through the machineBuilt seam, panics out of the run between two
// steps, which leaves the last checkpoint on disk; the next invocation resumes
// from it and must report what an uninterrupted run reports. (A cycle budget
// cannot stand in for the kill: it counts from cycle 0 across resumes, so a
// budget that stops a run once stops it for good.) The mdstep tests still use
// budgets — MaxPhaseCycles bounds each phase from where the phase began.

// runProbe is what the resume tests attach to one machine.
type runProbe struct {
	killAt uint64 // panic when the clock reaches it (0 = never)
	first  uint64 // the first clock the machine stepped to: checkpoint + 1 on a resumed one
}

// probeKey names the next machine a probe is meant for. Cells of the resume
// matrix run in parallel and differ in nothing but the engine (a point's seed
// is derived from its spec, which leaves the engine out), so it is in the key.
type probeKey struct {
	seed    uint64
	engine  string
	sharded bool
}

var probes sync.Map // probeKey -> *runProbe

// arm registers p for the next machine BuildMachine builds from mc under the
// given seed.
func arm(mc machine.Config, seed uint64, p *runProbe) {
	probes.Store(probeKey{seed, mc.Engine, mc.Shards > 1}, p)
}

// probeSeam is the machineBuilt seam of the resume tests: sharded machines
// alternate parallel and serial cycles (alternateCycles), and a machine with
// a probe armed gets it as an engine observer.
func probeSeam(m *machine.Machine) {
	alternateCycles(m)
	v, ok := probes.LoadAndDelete(probeKey{m.Cfg.Seed, m.Cfg.Engine, m.Cfg.Shards > 1})
	if !ok {
		return
	}
	p := v.(*runProbe)
	m.Engine.Observe(1, func(now uint64) uint64 {
		if p.first == 0 {
			p.first = now
		}
		if p.killAt != 0 && now >= p.killAt {
			panic("killed")
		}
		return p.killAt // 0 uninstalls
	})
}

// killedThenResumed runs job through exp.Run with a checkpoint every `every`
// cycles and kills it when its clock reaches killAt; the panic becomes a
// failed point and the last checkpoint stays in the sweep's directory. It then
// runs the job again with Resume, requires that run to have started from that
// checkpoint rather than from cycle 0, and returns its result. mc is the
// job's machine config.
func killedThenResumed(t *testing.T, job exp.Job, mc machine.Config, every, killAt uint64) exp.Result {
	t.Helper()
	opts := exp.Serial()
	opts.Checkpoint = exp.CheckpointOptions{Dir: t.TempDir(), Every: every}
	arm(mc, job.Spec.Seed(), &runProbe{killAt: killAt})
	if r := exp.Run([]exp.Job{job}, opts)[0]; r.Err == nil || !strings.Contains(r.Error, "killed") {
		t.Fatalf("the kill at cycle %d never fired: %+v", killAt, r)
	}
	if ents, _ := os.ReadDir(opts.Checkpoint.Dir); len(ents) != 1 {
		t.Fatalf("killed run left %d files in its checkpoint directory, want its one checkpoint", len(ents))
	}
	witness := &runProbe{}
	arm(mc, job.Spec.Seed(), witness)
	opts.Checkpoint.Resume = true
	r := exp.Run([]exp.Job{job}, opts)[0]
	// The kill observer runs before the checkpoint observer of the same clock.
	if last := (killAt - 1) / every * every; witness.first != last+1 {
		t.Errorf("second run first stepped to cycle %d, want %d (resumed from the checkpoint at %d)", witness.first, last+1, last)
	}
	if ents, _ := os.ReadDir(opts.Checkpoint.Dir); r.Err == nil && len(ents) != 0 {
		t.Errorf("%d files left in the checkpoint directory after success, want the checkpoint discarded", len(ents))
	}
	return r
}

func tpCkptConfig(seed uint64) ThroughputConfig {
	mc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	mc.Seed = seed
	return ThroughputConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: 64}
}

func TestThroughputCkptResume(t *testing.T) {
	machineBuilt = probeSeam
	defer func() { machineBuilt = nil }()
	job := ThroughputJob(tpCkptConfig(7))
	ref := exp.Run([]exp.Job{job}, exp.Serial())[0]
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	got := killedThenResumed(t, job, tpCkptConfig(7).Machine, 50, ref.Cycles/2)
	if got.Err != nil || !reflect.DeepEqual(got.Value, ref.Value) {
		t.Errorf("resumed result %+v (%v) differs from uninterrupted %+v", got.Value, got.Err, ref.Value)
	}
}

// TestResumedBudgetIsAbsolute: MaxCycles bounds a run from cycle 0. A point
// that cannot meet its budget fails at the same cycle — the error is part of
// its canonical artifact — whether it ran uninterrupted or was killed at a
// checkpoint and resumed with that much of the budget already spent.
func TestResumedBudgetIsAbsolute(t *testing.T) {
	machineBuilt = probeSeam
	defer func() { machineBuilt = nil }()
	cfg := tpCkptConfig(7)
	cfg.MaxCycles = 250
	job := ThroughputJob(cfg)
	ref := exp.Run([]exp.Job{job}, exp.Serial())[0]
	var timeout *sim.ErrTimeout
	if !errors.As(ref.Err, &timeout) || timeout.Cycle != 250 {
		t.Fatalf("uninterrupted run = %v, want a timeout at cycle 250", ref.Err)
	}
	if got := killedThenResumed(t, job, cfg.Machine, 50, 120); got.Error != ref.Error {
		t.Errorf("resumed run failed with %q, uninterrupted with %q", got.Error, ref.Error)
	}
}

func mdCkptConfig(seed uint64) MDStepConfig {
	mc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	mc.Seed = seed
	return MDStepConfig{
		Machine:        mc,
		Workload:       workload.Spec{HaloPackets: 6, Multicasts: 1, ReducePackets: 2, Timesteps: 2},
		MaxPhaseCycles: 400,
	}
}

// TestMDStepCkptResume: an mdstep point resumed from its last checkpoint
// finishes bit-identically to an uninterrupted run, whether the checkpoints
// were left by budget interruptions (each inside some phase's delivery wait)
// or by a crash right after one that landed inside a phase barrier's
// quiescence stepping.
func TestMDStepCkptResume(t *testing.T) {
	ref, err := RunMDStepPoint(mdCkptConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		// interrupt leaves the checkpoint of an interrupted run at rc.Path,
		// or finishes the run itself; it returns what it finished, if so.
		interrupt func(t *testing.T, rc ckpt.RunConfig) (MDStepPoint, bool)
	}{
		{"budget interruptions", func(t *testing.T, rc ckpt.RunConfig) (MDStepPoint, bool) {
			pt, err := RunMDStepPointCkpt(mdCkptConfig(7), rc)
			return pt, err == nil
		}},
		{"crash inside quiescence", func(t *testing.T, rc ckpt.RunConfig) (MDStepPoint, bool) {
			mdCkptInQuiescence(t, mdCkptConfig(7), rc)
			return MDStepPoint{}, false
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			rc := ckpt.RunConfig{
				Path:  filepath.Join(t.TempDir(), "md.ckpt"),
				Every: 40,
			}
			got, done := row.interrupt(t, rc)
			rc.Resume = true
			attempts := 0
			for ; !done && attempts < 100; attempts++ {
				got, err = RunMDStepPointCkpt(mdCkptConfig(7), rc)
				done = err == nil
			}
			if !done {
				t.Fatalf("never completed in %d attempts: %v", attempts, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("resumed point %+v differs from uninterrupted %+v after %d resumes", got, ref, attempts)
			}
			if _, err := os.Stat(rc.Path); !os.IsNotExist(err) {
				t.Errorf("checkpoint file not discarded after success (stat err: %v)", err)
			}
		})
	}
}

// mdCkptInQuiescence plays a run that crashes right after a checkpoint taken
// inside a phase barrier's quiescence stepping: it drives the point's
// workload with a checkpoint every cycle and keeps, at rc.Path, the first one
// that fires after the clock at which its phase's last delivery arrived — the
// delivery wait is over by then, so it is the driver's manual quiescence Step
// that fired it. It fails the test unless a fresh machine can resume from
// what it kept.
func mdCkptInQuiescence(t *testing.T, cfg MDStepConfig, rc ckpt.RunConfig) {
	t.Helper()
	mc, spec, err := mdstepMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := BuildMachine(mc)
	if err != nil {
		t.Fatal(err)
	}
	tag := MDStepSpec(cfg).Canonical()
	var deliveredAt uint64 // clock at which the current phase's wait was first seen over
	phase, kept := -1, false
	_, err = workload.RunResumable(m, spec, cfg.MaxPhaseCycles, nil, 1, func(p workload.Progress) {
		if key := p.Timestep*3 + p.Phase; key != phase {
			phase, deliveredAt = key, 0
		}
		switch {
		case kept || m.Delivered() < p.Before+p.Expected:
		case deliveredAt == 0:
			deliveredAt = m.Engine.Now()
		default:
			newRunCkptWriter(rc, m, tag).save(p)
			kept = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var prog workload.Progress
	rc.Resume = true
	snap := loadRunCkpt(rc, tag, &prog)
	if !kept || snap == nil {
		t.Fatalf("no checkpoint landed inside quiescence stepping (kept %v)", kept)
	}
	if fresh, _, err := BuildMachine(mc); err != nil || fresh.RestoreSnapshot(snap) != nil {
		t.Fatalf("the kept checkpoint does not restore into a fresh machine (build: %v)", err)
	}
}

// batchCkptJobs are one small point of each batch family — two of faultsweep:
// the transient-fault mix and a permanent link outage — as the resume matrix
// and the checkpointing-off test run them. Blend needs a ring of radix 4:
// tornado places no torus load on 2x2x2.
func batchCkptJobs(mutate func(*machine.Config)) map[string]exp.Job {
	mc := func(shape topo.TorusShape, flt *fault.Spec) machine.Config {
		c := machine.DefaultConfig(shape)
		c.Seed, c.Fault = 7, flt
		mutate(&c)
		return c
	}
	small := topo.Shape3(2, 2, 2)
	angara, _ := route.StrategyByName("angara")
	rc := RouteCompareConfig{Machine: mc(small, &fault.Spec{FailLinks: 1}), Pattern: traffic.Uniform{}, Batch: 16}
	rc.Machine.Scheme = angara
	return map[string]exp.Job{
		"fig10": BlendJob(BlendConfig{Machine: mc(topo.Shape3(4, 2, 2), nil), Weights: WeightsBoth, ForwardFraction: 0.5, Batch: 16}),
		"faultsweep/transient": FaultJob(FaultConfig{Pattern: traffic.Uniform{}, Batch: 16,
			Machine: mc(small, &fault.Spec{CorruptRate: 0.02, StallRate: 0.001, StallCycles: 40, Window: 16})}),
		"faultsweep/faillinks":          FaultJob(FaultConfig{Pattern: traffic.Uniform{}, Batch: 16, Machine: mc(small, &fault.Spec{FailLinks: 1})}),
		"routecompare/healthy":          RouteCompareJob(RouteCompareConfig{Machine: mc(small, nil), Pattern: traffic.Uniform{}, Batch: 16, VerifyDeadlock: true}),
		"routecompare/angara-faillinks": RouteCompareJob(rc),
	}
}

// TestCkptOffBitIdentical: with checkpointing off, a job's RunCkpt — the entry
// point exp takes whenever a sweep has a checkpoint directory — reports
// exactly what its Run reports and writes nothing, for every batch family and
// mdstep (the off path is the pre-checkpoint code path).
func TestCkptOffBitIdentical(t *testing.T) {
	jobs := batchCkptJobs(func(*machine.Config) {})
	jobs["fig9"] = ThroughputJob(tpCkptConfig(3))
	jobs["mdstep"] = MDStepJob(mdCkptConfig(3))
	dir := t.TempDir()
	for name, job := range jobs {
		a, err := job.Run(job.Spec.Seed())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A path alone does not enable checkpointing; Every does.
		b, err := job.RunCkpt(job.Spec.Seed(), ckpt.RunConfig{Path: filepath.Join(dir, "off.ckpt")})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: disabled checkpointing changed the result: %+v vs %+v", name, a, b)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("disabled checkpointing wrote %d files", len(ents))
	}
}

// TestFamilyJobsCheckpoint: every job of every registered family carries
// RunCkpt exactly when Family.Checkpoints says so, and that is every family
// but latency and energy.
func TestFamilyJobsCheckpoint(t *testing.T) {
	for _, f := range Families() {
		if want := f.Name != "latency" && f.Name != "energy"; f.Checkpoints() != want {
			t.Errorf("%s: Checkpoints() = %v, want %v", f.Name, f.Checkpoints(), want)
		}
		for _, panels := range [][]Axes{f.Full, f.Quick} {
			for _, a := range panels {
				if err := f.Check(&a); err != nil {
					t.Fatalf("%s: %v", f.Name, err)
				}
				for _, job := range f.Jobs(a, func(*machine.Config) {}) {
					if got := job.RunCkpt != nil; got != f.Checkpoints() {
						t.Errorf("%s: job %s has RunCkpt = %v, family says %v", f.Name, job.Spec.Canonical(), got, f.Checkpoints())
					}
				}
			}
		}
	}
}

// TestCkptGuards: checkpointing refuses configurations it cannot snapshot.
func TestCkptGuards(t *testing.T) {
	cfg := tpCkptConfig(1)
	cfg.Machine.Check = true
	rc := ckpt.RunConfig{Path: filepath.Join(t.TempDir(), "x.ckpt"), Every: 10}
	var ce *machine.ConfigError
	if _, err := runThroughput(cfg, rc); !errors.As(err, &ce) || ce.Field != "Check" {
		t.Errorf("checkpointing with the invariant suite attached = %v, want a *machine.ConfigError on Check", err)
	}
	md := mdCkptConfig(1)
	md.Machine.Telemetry = &telemetry.Options{}
	if _, err := RunMDStepPointCkpt(md, rc); !errors.As(err, &ce) || ce.Field != "Telemetry" {
		t.Errorf("checkpointing with telemetry attached = %v, want a *machine.ConfigError on Telemetry", err)
	}
}

// ckptEngines are the cycle-kernel variants the resume matrix crosses with
// the routing strategies. The matrix runs the sharded one with its cycles
// forced to alternate between parallel and serial (alternateCycles): a 2x2x2
// machine never reaches the engine's own threshold.
var ckptEngines = []struct {
	name   string
	mutate func(*machine.Config)
}{
	{"scan", func(c *machine.Config) { c.Engine = machine.EngineScan }},
	{"active", func(c *machine.Config) { c.Engine = machine.EngineActive }},
	{"sharded", func(c *machine.Config) { c.Engine = machine.EngineActive; c.Shards = 2 }},
}

// resumeUntilDone drives a run the way a repeatedly killed and restarted
// sweep does — each invocation fails on its cycle budget with a checkpoint on
// disk, the next one resumes — and returns the final point plus the number of
// interruptions.
func resumeUntilDone[T any](t *testing.T, rc *ckpt.RunConfig, run func(ckpt.RunConfig) (T, error)) (T, int) {
	t.Helper()
	var got T
	var err error
	attempts := 0
	for ; attempts < 200; attempts++ {
		got, err = run(*rc)
		if err == nil {
			return got, attempts
		}
		rc.Resume = true
	}
	t.Fatalf("never completed in %d attempts: %v", attempts, err)
	return got, attempts
}

// TestCkptResumeEngineStrategyMatrix: resume determinism across the full
// engine × strategy grid and every checkpoint-aware family. For every
// cycle-kernel variant (scan, active, sharded) × routing strategy (anton,
// vcless, angara), the golden 2×2×2 fig9 point is killed at a mid-run
// checkpoint and resumed through exp.Run, and the mdstep point is run with a
// phase budget that forces repeated mid-flight interruptions; under each
// engine the same kill and resume is played on a fig10 point, on faultsweep
// points under the transient-fault mix and under a permanent link outage, and
// on routecompare points healthy and with the fault-aware strategy routing
// around an outage. The resumed point must be byte-identical (canonical JSON:
// fault counters, latency quantiles and fairness included) to the
// uninterrupted run's. A checkpoint is an fsync, which at every cycle is still
// most of a cell's time, so only the anton fig9 cells write one at every cycle
// — they resume from the cycle before the kill, under each engine — and the
// rest stride by 7 and re-simulate up to six cycles; that no cycle is a bad
// boundary for the machine itself is machine.TestSnapshotEveryCycle's to pin.
// The cells run in parallel: the machineBuilt seam is installed once for the
// whole matrix (probeSeam; unsharded engines have no per-cycle choice to
// force and pass through alternateCycles untouched).
func TestCkptResumeEngineStrategyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("engine × strategy resume matrix is slow")
	}
	machineBuilt = probeSeam
	t.Cleanup(func() { machineBuilt = nil })
	// batchCell holds one batch job, whose machine config went through
	// mutate, to the uninterrupted artifact across a kill halfway through.
	batchCell := func(t *testing.T, job exp.Job, mutate func(*machine.Config), every uint64) {
		t.Parallel()
		mc := machine.Config{}
		mutate(&mc)
		ref := exp.Run([]exp.Job{job}, exp.Serial())
		if ref[0].Err != nil {
			t.Fatal(ref[0].Err)
		}
		got := killedThenResumed(t, job, mc, every, ref[0].Cycles/2)
		want, _ := exp.MarshalCanonical(ref)
		if have, _ := exp.MarshalCanonical([]exp.Result{got}); string(have) != string(want) {
			t.Errorf("resumed artifact differs:\n got %s\nwant %s", have, want)
		}
	}
	for _, eng := range ckptEngines {
		for name, job := range batchCkptJobs(eng.mutate) {
			t.Run(name+"/"+eng.name, func(t *testing.T) { batchCell(t, job, eng.mutate, 7) })
		}
	}
	for _, stratName := range []string{"anton", "vcless", "angara"} {
		strat, ok := route.StrategyByName(stratName)
		if !ok {
			t.Fatalf("strategy %q not registered", stratName)
		}
		tpEvery := uint64(7)
		if stratName == "anton" {
			tpEvery = 1
		}
		for _, eng := range ckptEngines {
			mutate := func(c *machine.Config) {
				c.Scheme = strat
				eng.mutate(c)
			}

			t.Run("fig9/"+stratName+"/"+eng.name, func(t *testing.T) {
				cfg := tpCkptConfig(7)
				cfg.Batch = 16
				mutate(&cfg.Machine)
				batchCell(t, ThroughputJob(cfg), mutate, tpEvery)
			})

			t.Run("mdstep/"+stratName+"/"+eng.name, func(t *testing.T) {
				t.Parallel()
				refCfg := mdCkptConfig(7)
				// vcless drains phases slower than anton; let the reference
				// use the volume-scaled default budget.
				refCfg.MaxPhaseCycles = 0
				mutate(&refCfg.Machine)
				ref, err := RunMDStepPoint(refCfg)
				if err != nil {
					t.Fatal(err)
				}
				refBytes := mustCanonJSON(t, ref)

				cfg := mdCkptConfig(7)
				mutate(&cfg.Machine)
				// Bound each phase below the longest uninterrupted phase so
				// at least one phase is interrupted mid-flight (budgets are
				// relative to the resume point, so progress is monotone).
				var longest uint64
				for _, ph := range ref.Phases {
					if ph.Cycles > longest {
						longest = ph.Cycles
					}
				}
				cfg.MaxPhaseCycles = longest/2 + 1
				rc := ckpt.RunConfig{Path: filepath.Join(t.TempDir(), "md.ckpt"), Every: 7}
				got, attempts := resumeUntilDone(t, &rc, func(rc ckpt.RunConfig) (MDStepPoint, error) {
					return RunMDStepPointCkpt(cfg, rc)
				})
				if attempts == 0 {
					t.Fatal("budget never interrupted the run; the test is not exercising resume")
				}
				if gotBytes := mustCanonJSON(t, got); string(gotBytes) != string(refBytes) {
					t.Errorf("resumed artifact differs after %d interruptions:\n got %s\nwant %s", attempts, gotBytes, refBytes)
				}
			})
		}
	}
}

// mustCanonJSON renders a point in its canonical artifact form for byte
// comparison.
func mustCanonJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v2File is a well-formed checkpoint of the retired format v2 (JSON header,
// section and commit lines, a CRC-32C per section and one over the group)
// carrying the given tag: what a run interrupted before the format change
// left at its path.
func v2File(tag string) []byte {
	crc := func(b []byte) string {
		return fmt.Sprintf("%08x", crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	}
	hdr, _ := json.Marshal(map[string]any{"format": ckpt.Format, "version": 2, "tag": tag, "cycle": 50, "sections": 1})
	body := string(hdr) + "\n" + `{"name":"machine","crc":"` + crc([]byte("{}")) + `","len":2}` + "\n{}\n"
	return []byte(body + `{"commit":1,"crc":"` + crc([]byte(body)) + `"}` + "\n")
}

// TestStaleFormatStartsFresh: there is no reader for an older format. A
// resuming run that finds a v2 file at its path starts over, reports what the
// uninterrupted run reports, and — killed in its turn — leaves a
// current-format checkpoint where the stale file was. An orphaned temp file a
// killed writer left beside the path is gone by the end of the run too.
func TestStaleFormatStartsFresh(t *testing.T) {
	machineBuilt = probeSeam
	defer func() { machineBuilt = nil }()
	cfg := tpCkptConfig(7)
	ref, err := RunThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := ckpt.RunConfig{Path: filepath.Join(t.TempDir(), "tp.ckpt"), Every: 50, Resume: true}
	tag := ThroughputSpec(cfg).Canonical()
	orphan := rc.Path + ".tmp4242"
	for path, content := range map[string][]byte{rc.Path: v2File(tag), orphan: []byte("torn")} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if rc.Load(tag) != nil {
		t.Fatal("a v2 file loaded as a checkpoint")
	}

	// Had the run resumed from "cycle 50" of the stale file instead of
	// starting over, its first step would not be to cycle 1.
	probe := &runProbe{killAt: 120}
	arm(cfg.Machine, cfg.Machine.Seed, probe)
	func() {
		defer func() { _ = recover() }()
		_, err = runThroughput(cfg, rc)
		t.Fatalf("the kill never fired (err %v); the test is not exercising the overwrite", err)
	}()
	if probe.first != 1 {
		t.Errorf("run over a stale-format file first stepped to cycle %d, want 1", probe.first)
	}
	if c := rc.Load(tag); c == nil || c.Cycle != 100 {
		t.Fatalf("killed run left no current-format checkpoint over the stale file: %+v", c)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived the run's first write (stat err: %v)", err)
	}
	got, err := runThroughput(cfg, rc)
	if err != nil || !reflect.DeepEqual(got, ref) {
		t.Errorf("result after a stale-format start %+v (%v) differs from uninterrupted %+v", got, err, ref)
	}
}

// BenchmarkCheckpoint prices one checkpoint on the product path — snapshot,
// record encode, atomic write with fsync — of a machine caught mid-run: the
// 4x4x2 MD timestep inside its first halo exchange, and the paper-size 8x8x8
// machine mid-way through a uniform batch-4 burst.
func BenchmarkCheckpoint(b *testing.B) {
	loop := func(b *testing.B, w *runCkptWriter, driver any) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.save(driver)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(w.record)), "bytes/checkpoint")
		if c, err := ckpt.ReadFile(w.rc.Path); err != nil || c.Cycle != w.m.Engine.Now() {
			b.Fatalf("checkpoint on disk: %+v, %v", c, err)
		}
	}
	b.Run("mdstep-4x4x2", func(b *testing.B) {
		cfg := MDStepConfig{Machine: machine.DefaultConfig(topo.Shape3(4, 4, 2))}
		mc, spec, err := mdstepMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, _, err := BuildMachine(mc)
		if err != nil {
			b.Fatal(err)
		}
		w := newRunCkptWriter(ckpt.RunConfig{Path: filepath.Join(b.TempDir(), "md.ckpt"), Every: 100}, m, "bench")
		measured := false
		if _, err := workload.RunResumable(m, spec, 0, nil, w.rc.Every, func(p workload.Progress) {
			if !measured {
				measured = true
				loop(b, w, p)
			}
		}); err != nil || !measured {
			b.Fatalf("measured %v, err %v", measured, err)
		}
	})
	b.Run("uniform-8x8x8", func(b *testing.B) {
		m, _, err := BuildMachine(machine.DefaultConfig(topo.Shape3(8, 8, 8)))
		if err != nil {
			b.Fatal(err)
		}
		sent := make([]int, m.Topo.NumNodes()*len(m.Topo.Chip.CoreEndpoints()))
		injectBatches(m, "tp", 4, sent, func(tm *topo.Machine, src topo.NodeEp, rng *rand.Rand) (topo.NodeEp, uint8) {
			return traffic.Uniform{}.Dest(tm, src, rng), 0
		})
		m.Engine.Run(200)
		w := newRunCkptWriter(ckpt.RunConfig{Path: filepath.Join(b.TempDir(), "tp.ckpt"), Every: 200}, m, "bench")
		loop(b, w, batchProgress{Sent: sent})
	})
}
