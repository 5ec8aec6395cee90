package exp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestCancelStopsScheduling verifies that cancelling the RunCtx context
// promptly stops new jobs from being scheduled: jobs block until cancelled,
// and after the cancellation only the jobs already handed to workers have
// run — everything else is a typed cancelled point that never executed.
func TestCancelStopsScheduling(t *testing.T) {
	const njobs = 32
	const workers = 2
	var started atomic.Int32
	release := make(chan struct{})
	mk := func(i int) Job {
		return Job{Spec: NewSpec("slow").Add("i", i), Run: func(uint64) (any, error) {
			started.Add(1)
			<-release
			return "done", nil
		}}
	}
	var jobs []Job
	for i := 0; i < njobs; i++ {
		jobs = append(jobs, mk(i))
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let the pool start its first wave, then cancel and unblock.
		for started.Load() < workers {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(release)
	}()
	rs := RunCtx(ctx, jobs, Options{Parallelism: workers})

	// The workers plus at most one handed-off index each may have started;
	// cancellation must keep the rest from ever running.
	if n := started.Load(); int(n) > 2*workers {
		t.Errorf("cancellation did not stop scheduling: %d of %d jobs started", n, njobs)
	}
	cancelledPoints := 0
	for i, r := range rs {
		if r.Spec == "" {
			t.Fatalf("result %d not filled in", i)
		}
		var ec *ErrCancelled
		if errors.As(r.Err, &ec) {
			cancelledPoints++
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("cancelled point %d does not unwrap to context.Canceled: %v", i, r.Err)
			}
		}
	}
	if cancelledPoints < njobs-2*workers {
		t.Errorf("only %d of %d points reported cancelled", cancelledPoints, njobs)
	}
}

// TestCancelDoesNotPoisonCache verifies a cancelled computation is dropped
// from the cache so a later run of the same spec recomputes and succeeds.
func TestCancelDoesNotPoisonCache(t *testing.T) {
	cache := NewCache()
	blocker := make(chan struct{})
	job := Job{Spec: NewSpec("poison"), Run: func(uint64) (any, error) {
		select {
		case <-blocker:
		case <-time.After(5 * time.Second):
		}
		return "ok", nil
	}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	rs := RunCtx(ctx, []Job{job}, Options{Parallelism: 1, Cache: cache})
	close(blocker)
	var ec *ErrCancelled
	if !errors.As(rs[0].Err, &ec) {
		t.Fatalf("first run not cancelled: %+v", rs[0])
	}

	// Same spec, fresh context: must recompute instead of replaying the
	// cached cancellation.
	fresh := Job{Spec: NewSpec("poison"), Run: func(uint64) (any, error) { return "ok", nil }}
	rs = Run([]Job{fresh}, Options{Parallelism: 1, Cache: cache})
	if rs[0].Err != nil || rs[0].Value != "ok" {
		t.Fatalf("cancelled computation poisoned the cache: %+v", rs[0])
	}
}

// TestCacheSeedRangeForget covers the persistence-support surface.
func TestCacheSeedRangeForget(t *testing.T) {
	c := NewCache()
	if !c.Seed("a", 1) {
		t.Fatal("seeding empty key failed")
	}
	if c.Seed("a", 2) {
		t.Fatal("seed overwrote an existing entry")
	}
	v, hit, err := c.Do("a", func() (any, error) { t.Fatal("seeded key recomputed"); return nil, nil })
	if v != 1 || !hit || err != nil {
		t.Fatalf("Do on seeded key = (%v, %v, %v), want (1, true, nil)", v, hit, err)
	}
	c.Do("bad", func() (any, error) { return nil, errors.New("boom") })
	got := map[string]any{}
	c.Range(func(k string, v any) { got[k] = v })
	if len(got) != 1 || got["a"] != 1 {
		t.Fatalf("Range visited %v, want only a=1 (errors skipped)", got)
	}
	c.Forget("a")
	if _, hit, _ := c.Do("a", func() (any, error) { return 3, nil }); hit {
		t.Fatal("Forget did not drop the entry")
	}
}
