package core

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"anton2/internal/ckpt"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/workload"
)

// The resume tests interrupt runs the way a crash-retry loop would: a cycle
// budget too small for one attempt makes the runner error out mid-flight with
// checkpoints on disk, and each retry resumes from the last one (budgets are
// relative, so a resumed attempt gets fresh slack). The final successful
// attempt must report results identical to an uninterrupted run.

func tpCkptConfig(seed uint64) ThroughputConfig {
	mc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	mc.Seed = seed
	return ThroughputConfig{
		Machine:   mc,
		Pattern:   traffic.Uniform{},
		Batch:     64,
		MaxCycles: 250,
	}
}

func TestThroughputCkptResume(t *testing.T) {
	// The uninterrupted reference gets an unbounded budget; the budget only
	// bounds the run, it never shapes the dynamics.
	refCfg := tpCkptConfig(7)
	refCfg.MaxCycles = 0
	ref, err := RunThroughput(refCfg)
	if err != nil {
		t.Fatal(err)
	}

	rc := ckpt.RunConfig{
		Path:  filepath.Join(t.TempDir(), "tp.ckpt"),
		Every: 50,
	}
	var got ThroughputResult
	attempts := 0
	for ; attempts < 100; attempts++ {
		got, err = RunThroughputCkpt(tpCkptConfig(7), rc)
		if err == nil {
			break
		}
		rc.Resume = true
	}
	if err != nil {
		t.Fatalf("never completed in %d attempts: %v", attempts, err)
	}
	if attempts == 0 {
		t.Fatal("budget never interrupted the run; the test is not exercising resume")
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("resumed result %+v differs from uninterrupted %+v after %d interruptions", got, ref, attempts)
	}
	if _, err := os.Stat(rc.Path); !os.IsNotExist(err) {
		t.Errorf("checkpoint file not discarded after success (stat err: %v)", err)
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

// TestCkptOffBitIdentical: a run with checkpointing disabled must report the
// exact same result through the checkpoint-aware entry points as through the
// plain ones (the off path is the pre-checkpoint code path).
func TestCkptOffBitIdentical(t *testing.T) {
	cfg := tpCkptConfig(3)
	cfg.MaxCycles = 0
	a, err := RunThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunThroughputCkpt(cfg, ckpt.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("disabled checkpointing changed the throughput result: %+v vs %+v", a, b)
	}

	p, err := RunMDStepPoint(mdCkptConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	q, err := RunMDStepPointCkpt(mdCkptConfig(3), ckpt.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Errorf("disabled checkpointing changed the mdstep point: %+v vs %+v", p, q)
	}
}

// TestCkptGuards: checkpointing refuses configurations it cannot snapshot.
func TestCkptGuards(t *testing.T) {
	cfg := tpCkptConfig(1)
	cfg.Machine.Check = true
	rc := ckpt.RunConfig{Path: filepath.Join(t.TempDir(), "x.ckpt"), Every: 10}
	var ce *machine.ConfigError
	if _, err := RunThroughputCkpt(cfg, rc); !errors.As(err, &ce) || ce.Field != "Check" {
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
// engine × strategy grid. For every cycle-kernel variant (scan, active,
// sharded) × routing strategy (anton, vcless, angara), the golden 2×2×2
// mdstep and fig9 (throughput) points are run with frequent checkpoints and
// a budget that forces repeated mid-flight interruptions; the resumed point
// must be byte-identical (canonical JSON) to the uninterrupted run's. A
// checkpoint is an fsync, which at every cycle is still most of a cell's
// time, so only the anton fig9 cells write one at every cycle — their
// interruptions resume from the very cycle the budget ran out on, under each
// engine — and the rest stride by 7, far below every budget here, so theirs
// resume from up to six cycles earlier and re-simulate the difference; that
// no cycle is a bad boundary for the machine itself is
// machine.TestSnapshotEveryCycle's to pin. The cells run in parallel:
// the machineBuilt seam the sharded ones need is installed once for the whole
// matrix, which the others — unsharded engines have no per-cycle choice to
// force — pass through untouched.
func TestCkptResumeEngineStrategyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("engine × strategy resume matrix is slow")
	}
	machineBuilt = alternateCycles
	t.Cleanup(func() { machineBuilt = nil })
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
				t.Parallel()
				refCfg := tpCkptConfig(7)
				refCfg.Batch = 16
				refCfg.MaxCycles = 0
				mutate(&refCfg.Machine)
				ref, err := RunThroughput(refCfg)
				if err != nil {
					t.Fatal(err)
				}
				refBytes := mustCanonJSON(t, ref)

				cfg := tpCkptConfig(7)
				cfg.Batch = 16
				mutate(&cfg.Machine)
				// A budget of a third of the uninterrupted run guarantees at
				// least two mid-flight interruptions.
				cfg.MaxCycles = ref.Cycles / 3
				rc := ckpt.RunConfig{Path: filepath.Join(t.TempDir(), "tp.ckpt"), Every: tpEvery}
				got, attempts := resumeUntilDone(t, &rc, func(rc ckpt.RunConfig) (ThroughputResult, error) {
					return RunThroughputCkpt(cfg, rc)
				})
				if attempts == 0 {
					t.Fatal("budget never interrupted the run; the test is not exercising resume")
				}
				if gotBytes := mustCanonJSON(t, got); string(gotBytes) != string(refBytes) {
					t.Errorf("resumed artifact differs after %d interruptions:\n got %s\nwant %s", attempts, gotBytes, refBytes)
				}
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

// v1File is a syntactically valid format-v1 checkpoint (sections base64 inside
// JSON lines) carrying the given tag: what a run interrupted before the
// format change left at its path.
func v1File(tag string) []byte {
	hdr, _ := json.Marshal(map[string]any{"format": ckpt.Format, "version": 1, "tag": tag, "cycle": 50, "sections": 1})
	sec := `{"name":"machine","crc":"` + ckpt.ChecksumHex([]byte("{}")) + `","data":"e30="}` + "\n"
	body := string(hdr) + "\n" + sec
	return []byte(body + `{"commit":1,"crc":"` + ckpt.ChecksumHex([]byte(body)) + `"}` + "\n")
}

// TestStaleFormatStartsFresh: there is no reader for an older format. A
// resuming run that finds a v1 file at its path starts over, reports what the
// uninterrupted run reports, and — interrupted in its turn — leaves a
// current-format checkpoint where the stale file was. An orphaned temp file a
// killed writer left beside the path is gone by the end of the run too.
func TestStaleFormatStartsFresh(t *testing.T) {
	refCfg := tpCkptConfig(7)
	refCfg.MaxCycles = 0
	ref, err := RunThroughput(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := ckpt.RunConfig{Path: filepath.Join(t.TempDir(), "tp.ckpt"), Every: 50, Resume: true}
	tag := ThroughputSpec(tpCkptConfig(7)).Canonical()
	orphan := rc.Path + ".tmp4242"
	for path, content := range map[string][]byte{rc.Path: v1File(tag), orphan: []byte("torn")} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if rc.Load(tag) != nil {
		t.Fatal("a v1 file loaded as a checkpoint")
	}

	// The budgeted config fails mid-flight; had it resumed from "cycle 50" of
	// the stale file instead of starting over it could not match ref below.
	if _, err := RunThroughputCkpt(tpCkptConfig(7), rc); err == nil {
		t.Fatal("budget never interrupted the run; the test is not exercising the overwrite")
	}
	if c := rc.Load(tag); c == nil || c.Cycle == 0 {
		t.Fatalf("interrupted run left no current-format checkpoint over the stale file: %+v", c)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived the run's first write (stat err: %v)", err)
	}
	got, _ := resumeUntilDone(t, &rc, func(rc ckpt.RunConfig) (ThroughputResult, error) {
		return RunThroughputCkpt(tpCkptConfig(7), rc)
	})
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("result after a stale-format start %+v differs from uninterrupted %+v", got, ref)
	}
}

// BenchmarkCheckpoint prices one checkpoint on the product path — snapshot,
// frame encode, atomic write with fsync — of a machine caught mid-run: the
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
		b.ReportMetric(float64(len(w.frame)), "bytes/checkpoint")
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
		injectBatches(m, "tp", 4, sent, func(src topo.NodeEp, rng *rand.Rand) (topo.NodeEp, uint8) {
			return traffic.Uniform{}.Dest(m.Topo, src, rng), 0
		})
		m.Engine.Run(200)
		w := newRunCkptWriter(ckpt.RunConfig{Path: filepath.Join(b.TempDir(), "tp.ckpt"), Every: 200}, m, "bench")
		loop(b, w, tpProgress{Sent: sent})
	})
}
