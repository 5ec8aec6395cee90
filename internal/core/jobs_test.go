package core

import (
	"errors"
	"testing"

	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// TestDeadlockedJobIsFailedPoint drives the sim.ErrDeadlock watchdog path
// through the orchestrator: a machine that can make no progress (a delivery
// target with no traffic sources) trips the watchdog, the point is reported
// failed with the deadlock error preserved, and the rest of the sweep
// completes.
func TestDeadlockedJobIsFailedPoint(t *testing.T) {
	mc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	healthy := ThroughputConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: 8}
	stuck := exp.Job{
		Spec: exp.NewSpec("stuck").Add("shape", mc.Shape),
		Run: func(seed uint64) (any, error) {
			c := mc
			c.Seed = seed
			m, _, err := BuildMachine(c)
			if err != nil {
				return nil, err
			}
			// No endpoint ever injects, so waiting for one delivery
			// starves the watchdog.
			_, err = m.RunUntilDelivered(1, 10_000_000)
			return nil, err
		},
	}
	jobs := []exp.Job{ThroughputJob(healthy), stuck, ThroughputJob(healthy)}
	rs := exp.Run(jobs, exp.Parallel(3))

	if rs[0].Err != nil || rs[2].Err != nil {
		t.Fatalf("healthy points failed: %v / %v", rs[0].Err, rs[2].Err)
	}
	if rs[1].Err == nil || !rs[1].Deadlock {
		t.Fatalf("deadlocked point not flagged: %+v", rs[1])
	}
	var de *sim.ErrDeadlock
	if !errors.As(rs[1].Err, &de) {
		t.Fatalf("deadlock error type lost: %v", rs[1].Err)
	}
	if exp.Failed(rs) != 1 {
		t.Errorf("failed-point count = %d, want 1", exp.Failed(rs))
	}
}

// TestPatternLoadsShared verifies the per-(configuration, pattern) loads
// cache: repeated and seed-varied lookups share one computation, while
// routing-relevant changes get their own entry.
func TestPatternLoadsShared(t *testing.T) {
	mc := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	a, err := PatternLoads(mc, traffic.Uniform{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := PatternLoads(mc, traffic.Uniform{})
	if a != b {
		t.Error("identical configurations recomputed loads")
	}
	seeded := mc
	seeded.Seed = 1234 // seeds do not influence analytic loads
	c, _ := PatternLoads(seeded, traffic.Uniform{})
	if c != a {
		t.Error("seed change must not split the loads cache")
	}
	rerouted := mc
	rerouted.Scheme = route.BaselineScheme{}
	d, _ := PatternLoads(rerouted, traffic.Uniform{})
	if d == a {
		t.Error("routing-policy change must not share cached loads")
	}
}

// TestSweepSeedsFromSpecs: two sweeps differing only in base seed must get
// different derived per-job seeds, and the same sweep must reuse the same
// seeds (they are a pure function of the spec).
func TestSweepSeedsFromSpecs(t *testing.T) {
	cfg := ThroughputConfig{Machine: machine.DefaultConfig(topo.Shape3(2, 2, 2)), Pattern: traffic.Uniform{}, Batch: 4}
	s1 := throughputSpec(cfg)
	s2 := throughputSpec(cfg)
	if s1.Seed() != s2.Seed() {
		t.Error("same config must derive the same seed")
	}
	reseeded := cfg
	reseeded.Machine.Seed = 7
	if throughputSpec(reseeded).Seed() == s1.Seed() {
		t.Error("base-seed change must reach the derived seed")
	}
	bigger := cfg
	bigger.Batch = 8
	if throughputSpec(bigger).Seed() == s1.Seed() {
		t.Error("parameter change must reach the derived seed")
	}
}
