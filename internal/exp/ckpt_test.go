package exp

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"anton2/internal/ckpt"
)

// ckptCountJob is a synthetic checkpoint-aware job: it counts to limit,
// persisting the counter every 10 steps, and panics once at crashAt on its
// first pass. The returned value records where the successful pass started,
// so the test can tell a real resume from a silent restart.
func ckptCountJob(t *testing.T, limit, crashAt int) Job {
	t.Helper()
	spec := NewSpec("count").Add("limit", limit)
	tag := spec.Canonical()
	crashed := false
	run := func(seed uint64, rc ckpt.RunConfig) (any, error) {
		start := 0
		if c := rc.Load(tag); c != nil {
			if b, ok := c.Section("n"); ok {
				if err := json.Unmarshal(b, &start); err != nil {
					start = 0
				}
			}
		}
		for n := start; n < limit; n++ {
			if rc.Enabled() && n%10 == 0 {
				c := ckpt.New(tag, uint64(n))
				b, _ := json.Marshal(n)
				c.Add("n", b)
				if err := ckpt.WriteFile(rc.Path, c); err != nil {
					t.Errorf("checkpoint save: %v", err)
				}
			}
			if n == crashAt && !crashed {
				crashed = true
				panic("synthetic crash")
			}
		}
		rc.Discard()
		return map[string]int{"start": start, "end": limit}, nil
	}
	return Job{
		Spec:    spec,
		Run:     func(seed uint64) (any, error) { return run(seed, ckpt.RunConfig{}) },
		RunCkpt: run,
	}
}

// TestRunCkptResumesAfterPanic: a job runs once, so a panicked Run leaves a
// failed point and its checkpoint on disk; a second Run with Resume picks the
// checkpoint up instead of starting over.
func TestRunCkptResumesAfterPanic(t *testing.T) {
	job := ckptCountJob(t, 100, 55)
	opts := Serial()
	opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Every: 1}
	if res := Run([]Job{job}, opts)[0]; res.Err == nil {
		t.Fatalf("panicked run reported success: %+v", res)
	}
	opts.Checkpoint.Resume = true
	res := Run([]Job{job}, opts)[0]
	if res.Err != nil {
		t.Fatalf("resumed run failed: %v", res.Err)
	}
	got := res.Value.(map[string]int)
	if got["start"] != 50 {
		t.Errorf("resume started at %d, want 50 (the last checkpoint before the crash)", got["start"])
	}
}

// TestRunCkptFirstAttemptFresh: without CheckpointOptions.Resume, a first
// attempt ignores any stale checkpoint file on disk; with it, the first
// attempt resumes (the process-restart case).
func TestRunCkptFirstAttemptFresh(t *testing.T) {
	dir := t.TempDir()
	job := ckptCountJob(t, 100, -1) // never crashes
	// Plant a checkpoint where the runner will look for this job.
	path := filepath.Join(dir, ckptPathName(job))
	c := ckpt.New(job.Spec.Canonical(), 30)
	b, _ := json.Marshal(30)
	c.Add("n", b)
	if err := ckpt.WriteFile(path, c); err != nil {
		t.Fatal(err)
	}

	opts := Serial()
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1}
	res := Run([]Job{job}, opts)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Value.(map[string]int)["start"]; got != 0 {
		t.Errorf("fresh first attempt started at %d, want 0", got)
	}

	if err := ckpt.WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint.Resume = true
	res = Run([]Job{job}, opts)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Value.(map[string]int)["start"]; got != 30 {
		t.Errorf("resumed first attempt started at %d, want 30", got)
	}
}

// ckptPathName mirrors CheckpointOptions.runConfig's file naming.
func ckptPathName(j Job) string {
	hash := fmt.Sprintf("%016x", j.Spec.Hash())
	rc := CheckpointOptions{Dir: "", Every: 1}.runConfig(hash, j.Spec.Seed())
	return filepath.Base(rc.Path)
}
