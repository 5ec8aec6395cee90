package exp

import (
	"encoding/json"
	"fmt"
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
				if err := writeCkpt(rc.Path, c); err != nil {
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
// failed point and its checkpoint on disk; a second Run over the same
// directory picks the checkpoint up instead of starting over.
func TestRunCkptResumesAfterPanic(t *testing.T) {
	job := ckptCountJob(t, 100, 55)
	opts := Serial()
	opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Every: 1}
	if res := Run([]Job{job}, opts)[0]; res.Err == nil {
		t.Fatalf("panicked run reported success: %+v", res)
	}
	res := Run([]Job{job}, opts)[0]
	if res.Err != nil {
		t.Fatalf("resumed run failed: %v", res.Err)
	}
	got := res.Value.(map[string]int)
	if got["start"] != 50 {
		t.Errorf("resume started at %d, want 50 (the last checkpoint before the crash)", got["start"])
	}
}

// TestRunCkptResumesFromDisk: a checkpoint a previous process left where the
// runner looks for a job is resumed on the job's first attempt, with no
// option asking for it (the process-restart case).
func TestRunCkptResumesFromDisk(t *testing.T) {
	job := ckptCountJob(t, 100, -1) // never crashes
	opts := Serial()
	opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Every: 1}
	// Plant a checkpoint where the runner will look for this job.
	path := opts.Checkpoint.runConfig(fmt.Sprintf("%016x", job.Spec.Hash()), job.Spec.Seed()).Path
	c := ckpt.New(job.Spec.Canonical(), 30)
	b, _ := json.Marshal(30)
	c.Add("n", b)
	if err := writeCkpt(path, c); err != nil {
		t.Fatal(err)
	}

	res := Run([]Job{job}, opts)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Value.(map[string]int)["start"]; got != 30 {
		t.Errorf("first attempt started at %d, want 30 (the planted checkpoint)", got)
	}
}

// writeCkpt encodes c and atomically replaces path with it.
func writeCkpt(path string, c *ckpt.Checkpoint) error {
	b, err := c.Encode()
	if err != nil {
		return err
	}
	return ckpt.AtomicWriteFile(path, b)
}
