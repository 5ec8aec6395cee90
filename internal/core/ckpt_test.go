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
	"sync/atomic"
	"testing"

	"anton2/internal/ckpt"
	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/sim"
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

var probes sync.Map // machine seed -> *runProbe

// ownChoice, while set, leaves sharded machines on the engine's own
// per-cycle choice: the mode lattice sets it around an auto cell, which runs
// while no other cell does.
var ownChoice atomic.Bool

// probeSeam is the machineBuilt seam of the resume tests and the mode
// lattice: a sharded machine alternates parallel and serial cycles
// (alternateCycles) at any shape unless ownChoice is set, and a machine whose
// seed has a probe armed gets it as an engine observer. A probe is armed by
// seed, which the cells of one lattice panel share, so while one is armed no
// other machine of that seed may be built.
func probeSeam(m *machine.Machine) {
	if !ownChoice.Load() {
		alternateCycles(m)
	}
	v, ok := probes.LoadAndDelete(m.Cfg.Seed)
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

// killedThenResumed runs jobs through exp.Run under opts, which checkpoint,
// and kills jobs[0] when its clock reaches killAt; the panic becomes a failed
// point and its last checkpoint stays in the sweep's directory, where the
// other jobs, finished, leave nothing. It then runs the jobs again over that
// directory, requires jobs[0] to have started from that checkpoint rather
// than from cycle 0 and the directory to be empty after success, and returns
// the second run's results. between, when non-nil, runs between the two.
func killedThenResumed(t *testing.T, jobs []exp.Job, opts exp.Options, killAt uint64, between func()) []exp.Result {
	t.Helper()
	seed, every := jobs[0].Spec.Seed(), opts.Checkpoint.Every
	defer probes.Delete(seed)
	probes.Store(seed, &runProbe{killAt: killAt})
	if r := exp.Run(jobs, opts)[0]; r.Err == nil || !strings.Contains(r.Error, "killed") {
		t.Fatalf("the kill at cycle %d never fired: %+v", killAt, r)
	}
	if ents, _ := os.ReadDir(opts.Checkpoint.Dir); len(ents) != 1 {
		t.Fatalf("killed run left %d files in its checkpoint directory, want its one checkpoint", len(ents))
	}
	if between != nil {
		between()
	}
	witness := &runProbe{}
	probes.Store(seed, witness)
	rs := exp.Run(jobs, opts)
	// The kill observer runs before the checkpoint observer of the same clock.
	if last := (killAt - 1) / every * every; witness.first != last+1 {
		t.Errorf("second run first stepped to cycle %d, want %d (resumed from the checkpoint at %d)", witness.first, last+1, last)
	}
	if ents, _ := os.ReadDir(opts.Checkpoint.Dir); exp.Failed(rs) == 0 && len(ents) != 0 {
		t.Errorf("%d files left in the checkpoint directory after success, want the checkpoint discarded", len(ents))
	}
	return rs
}

func tpCkptConfig(seed uint64) ThroughputConfig {
	mc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	mc.Seed = seed
	return ThroughputConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: 64}
}

// TestResumedBudgetIsAbsolute: a batch point's cycle budget bounds it from
// cycle 0. A point that cannot meet its budget fails at the same cycle — the
// error is part of its canonical artifact — whether it ran uninterrupted or
// was killed at a checkpoint and resumed with that much of the budget already
// spent. The point is the golden fig9 one under a 250-cycle budget.
func TestResumedBudgetIsAbsolute(t *testing.T) {
	machineBuilt = probeSeam
	defer func() { machineBuilt = nil }()
	cfg := tpCkptConfig(7)
	spec := throughputSpec(cfg)
	run := func(seed uint64, rc ckpt.RunConfig) (any, error) {
		mc := cfg.Machine
		mc.Seed = seed
		_, _, _, err := runBatch(batchPoint{
			machine: mc,
			stream:  "tp",
			batch:   cfg.Batch,
			draw: func(tm *topo.Machine, src topo.NodeEp, rng *rand.Rand) (topo.NodeEp, uint8) {
				return cfg.Pattern.Dest(tm, src, rng), 0
			},
			maxCycles: 250,
			tag:       spec.Canonical(),
			label:     "budget run",
		}, rc)
		return nil, err
	}
	job := exp.Job{Spec: spec, Run: func(seed uint64) (any, error) { return run(seed, ckpt.RunConfig{}) }, RunCkpt: run}
	ref := exp.Run([]exp.Job{job}, exp.Serial())[0]
	var timeout *sim.ErrTimeout
	if !errors.As(ref.Err, &timeout) || timeout.Cycle != 250 {
		t.Fatalf("uninterrupted run = %v, want a timeout at cycle 250", ref.Err)
	}
	opts := exp.Serial()
	opts.Checkpoint = exp.CheckpointOptions{Dir: t.TempDir(), Every: 50}
	if got := killedThenResumed(t, []exp.Job{job}, opts, 120, nil)[0]; got.Error != ref.Error {
		t.Errorf("resumed run failed with %q, uninterrupted with %q", got.Error, ref.Error)
	}
}

// TestCheckedResume: a checked 4x4x2 fig9 point whose credit counter is
// corrupted from the start fails with the suite's error, which names the
// violation count and the least violation. Killed after a checkpoint and
// resumed, it fails with the same error: the record carries the suite, and a
// restored suite scans on the uninterrupted run's cycles.
func TestCheckedResume(t *testing.T) {
	machineBuilt = func(m *machine.Machine) {
		m.Chan(0).CorruptCreditsForTest(0, +10) // a restore overwrites it with the record's
		probeSeam(m)
	}
	defer func() { machineBuilt = nil }()
	cfg := tpCkptConfig(7)
	cfg.Machine.Shape, cfg.Machine.Check = topo.Shape3(4, 4, 2), true
	job := ThroughputJob(cfg)
	ref := exp.Run([]exp.Job{job}, exp.Serial())[0]
	if !strings.Contains(ref.Error, "above buffer capacity") {
		t.Fatalf("uninterrupted run = %q, want the corrupted credit reported", ref.Error)
	}
	opts := exp.Serial()
	opts.Checkpoint = exp.CheckpointOptions{Dir: t.TempDir(), Every: 100}
	if got := killedThenResumed(t, []exp.Job{job}, opts, 250, nil)[0]; got.Error != ref.Error {
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
// finishes bit-identically to an uninterrupted scan run, whether the
// checkpoints were left by budget interruptions (each inside some phase's
// delivery wait; under every registered strategy on the scan engine, the
// active one and two shards alternating parallel and serial cycles) or by a
// crash right after one that landed inside a phase barrier's quiescence
// stepping.
func TestMDStepCkptResume(t *testing.T) {
	machineBuilt = probeSeam
	t.Cleanup(func() { machineBuilt = nil })
	// resume runs cfg with a checkpoint every `every` cycles until it
	// completes, after interrupt left its checkpoint, and holds it to ref; it
	// returns the number of resumes.
	resume := func(t *testing.T, cfg MDStepConfig, ref MDStepPoint, every uint64, interrupt func(rc ckpt.RunConfig)) int {
		rc := ckpt.RunConfig{Path: filepath.Join(t.TempDir(), "md.ckpt"), Every: every}
		interrupt(rc)
		got, err := RunMDStepPointCkpt(cfg, rc)
		attempts := 0
		for ; err != nil && attempts < 100; attempts++ {
			got, err = RunMDStepPointCkpt(cfg, rc)
		}
		if err != nil {
			t.Fatalf("never completed in %d attempts: %v", attempts, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("resumed point %+v differs from uninterrupted %+v after %d resumes", got, ref, attempts)
		}
		if _, err := os.Stat(rc.Path); !os.IsNotExist(err) {
			t.Errorf("checkpoint file not discarded after success (stat err: %v)", err)
		}
		return attempts
	}
	engines := []struct {
		name   string
		engine string
		shards int
	}{{"scan", machine.EngineScan, 1}, {"active", machine.EngineActive, 1}, {"sharded", machine.EngineActive, 2}}
	t.Run("budget interruptions", func(t *testing.T) {
		for _, s := range route.Strategies() {
			refCfg := mdCkptConfig(7)
			// The volume-scaled default budget: vcless drains phases slower
			// than anton.
			refCfg.Machine.Scheme, refCfg.Machine.Engine, refCfg.MaxPhaseCycles = s, machine.EngineScan, 0
			ref, err := RunMDStepPoint(refCfg)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			// Each phase is bounded below the longest one, so that at least
			// one is interrupted mid-flight. A budget counts from the cycle at
			// which a run, fresh or resumed, entered its phase and spans two
			// checkpoints, so every run makes progress.
			var longest uint64
			for _, ph := range ref.Phases {
				longest = max(longest, ph.Cycles)
			}
			for _, eng := range engines {
				t.Run(s.Name()+"/"+eng.name, func(t *testing.T) {
					t.Parallel()
					cfg := refCfg
					cfg.Machine.Engine, cfg.Machine.Shards, cfg.MaxPhaseCycles = eng.engine, eng.shards, longest/2+1
					if resume(t, cfg, ref, max(1, longest/4), func(ckpt.RunConfig) {}) == 0 {
						t.Error("the budget never interrupted the run: no resume exercised")
					}
				})
			}
		}
	})
	t.Run("crash inside quiescence", func(t *testing.T) {
		ref, err := RunMDStepPoint(mdCkptConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		resume(t, mdCkptConfig(7), ref, 40, func(rc ckpt.RunConfig) { mdCkptInQuiescence(t, mdCkptConfig(7), rc) })
	})
}

// mdCkptInQuiescence plays a run that crashes right after a checkpoint taken
// inside a phase barrier's quiescence drain: it drives the point's workload
// with a checkpoint every cycle and keeps, at rc.Path, the first one that
// fires after the clock at which its phase's last delivery arrived — the
// delivery wait is over by then, so it is the barrier's drain that fired it.
// It fails the test unless a fresh machine can resume from what it kept.
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
	snap := loadRunCkpt(rc, tag, &prog)
	if !kept || snap == nil {
		t.Fatalf("no checkpoint landed inside quiescence stepping (kept %v)", kept)
	}
	if fresh, _, err := BuildMachine(mc); err != nil || fresh.RestoreSnapshot(snap) != nil {
		t.Fatalf("the kept checkpoint does not restore into a fresh machine (build: %v)", err)
	}
}

// TestFamilyJobsCheckpoint: every job of every registered family carries
// RunCkpt — one long run a point, under runBatch or runMDStep — but latency's
// ping-pong pairs and energy's two short streams, which step their machines
// from loops of their own and always start over.
func TestFamilyJobsCheckpoint(t *testing.T) {
	for _, f := range Families() {
		want := f.Name != "latency" && f.Name != "energy"
		for _, panels := range [][]Axes{f.Full, f.Quick} {
			for _, a := range panels {
				if err := f.Check(&a); err != nil {
					t.Fatalf("%s: %v", f.Name, err)
				}
				for _, job := range f.Jobs(a, func(*machine.Config) {}) {
					if got := job.RunCkpt != nil; got != want {
						t.Errorf("%s: job %s has RunCkpt = %v, want %v", f.Name, job.Spec.Canonical(), got, want)
					}
				}
			}
		}
	}
}

// TestCheckpointFlags: the CLIs' checkpoint flags come as a pair or not at
// all.
func TestCheckpointFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dir   string
		every uint64
		want  string // substring of the refusal; empty accepts
	}{
		{"every without dir", "", 100, "-checkpoint-every requires -checkpoint-dir"},
		{"dir without every", "d", 0, "-checkpoint-dir requires -checkpoint-every"},
		{"on", "d", 100, ""},
		{"off", "", 0, ""},
	} {
		opts, err := CheckpointFlags(tc.dir, tc.every)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		case tc.want != "" && opts != (exp.CheckpointOptions{}):
			t.Errorf("%s: refused with options %+v, want the zero value", tc.name, opts)
		case tc.want == "" && opts != (exp.CheckpointOptions{Dir: tc.dir, Every: tc.every}):
			t.Errorf("%s: options = %+v", tc.name, opts)
		}
	}
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
	rc := ckpt.RunConfig{Path: filepath.Join(t.TempDir(), "tp.ckpt"), Every: 50}
	tag := throughputSpec(cfg).Canonical()
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
	probes.Store(cfg.Machine.Seed, probe)
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
