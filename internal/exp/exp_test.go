package exp

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"anton2/internal/sim"
)

func TestSpecCanonical(t *testing.T) {
	s := NewSpec("blend").Add("shape", "4x4x2").Add("f", 0.25).Add("batch", 96)
	want := "blend{shape=4x4x2 f=0.25 batch=96}"
	if got := s.Canonical(); got != want {
		t.Errorf("canonical = %q, want %q", got, want)
	}
	same := NewSpec("blend").Add("shape", "4x4x2").Add("f", 0.25).Add("batch", 96)
	if s.Hash() != same.Hash() || s.Seed() != same.Seed() {
		t.Error("identical specs must hash to identical seeds")
	}
	diff := NewSpec("blend").Add("shape", "4x4x2").Add("f", 0.5).Add("batch", 96)
	if s.Seed() == diff.Seed() {
		t.Error("specs differing in one parameter must get distinct seeds")
	}
}

// jobFor builds a job whose value is a pure function of its spec-derived
// seed, so scheduling cannot influence results.
func jobFor(i int) Job {
	return Job{
		Spec: NewSpec("synthetic").Add("i", i),
		Run: func(seed uint64) (any, error) {
			return fmt.Sprintf("v%d-%x", i, seed), nil
		},
	}
}

func TestRunSerialParallelIdentical(t *testing.T) {
	var jobs []Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, jobFor(i))
	}
	serial := Run(jobs, Serial())
	par := Run(jobs, Parallel(8))
	a, err := MarshalCanonical(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalCanonical(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("serial and parallel canonical artifacts differ:\n%s\n---\n%s", a, b)
	}
	for i, r := range par {
		if r.Index != i || r.Value != serial[i].Value || r.Seed != serial[i].Seed {
			t.Fatalf("result %d out of order or divergent: %+v vs %+v", i, r, serial[i])
		}
	}
}

func TestPanicIsolatedToOnePoint(t *testing.T) {
	jobs := []Job{
		jobFor(0),
		{Spec: NewSpec("boom"), Run: func(uint64) (any, error) { panic("kaboom") }},
		jobFor(2),
	}
	rs := Run(jobs, Parallel(2))
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", rs[0].Err, rs[2].Err)
	}
	if rs[1].Err == nil || rs[1].Value != nil {
		t.Fatalf("panicking job not reported as failed point: %+v", rs[1])
	}
	if Failed(rs) != 1 || FirstErr(rs) == nil {
		t.Errorf("failure accounting wrong: failed=%d err=%v", Failed(rs), FirstErr(rs))
	}
}

func TestDeadlockPreservedAndIsolated(t *testing.T) {
	dl := Job{Spec: NewSpec("stuck"), Run: func(uint64) (any, error) {
		return nil, fmt.Errorf("run wedged: %w", &sim.ErrDeadlock{Cycle: 123, Window: 50_000})
	}}
	rs := Run([]Job{jobFor(0), dl, jobFor(2)}, Parallel(3))
	if !rs[1].Deadlock {
		t.Errorf("deadlock not flagged: %+v", rs[1])
	}
	var de *sim.ErrDeadlock
	if !errors.As(rs[1].Err, &de) || de.Cycle != 123 {
		t.Errorf("deadlock error not preserved: %v", rs[1].Err)
	}
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Error("deadlocked point killed the rest of the sweep")
	}
}

func TestCacheMemoizesAcrossSweeps(t *testing.T) {
	var computed atomic.Int32
	mk := func(i int) Job {
		return Job{Spec: NewSpec("cached").Add("i", i), Run: func(seed uint64) (any, error) {
			computed.Add(1)
			return seed, nil
		}}
	}
	jobs := []Job{mk(0), mk(1), mk(0), mk(1)} // duplicates within the sweep
	cache := NewCache()
	rs1 := Run(jobs, Options{Parallelism: 4, Cache: cache})
	rs2 := Run(jobs, Options{Parallelism: 4, Cache: cache})
	if got := computed.Load(); got != 2 {
		t.Errorf("computed %d times, want 2 (unique specs)", got)
	}
	for i := range jobs {
		if rs1[i].Value != rs2[i].Value {
			t.Errorf("cache changed result %d: %v vs %v", i, rs1[i].Value, rs2[i].Value)
		}
		if !rs2[i].Cached {
			t.Errorf("second sweep point %d not served from cache", i)
		}
	}
}
