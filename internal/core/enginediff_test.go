package core

import (
	"bytes"
	"testing"

	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/workload"
)

// This file is the differential regression net over the family registry: every
// simulated experiment family runs once per engine configuration — at paper
// scale, and again tiny under every registered routing strategy with the full
// runtime invariant story — and the canonical artifacts must be
// byte-identical. The active-set scheduler and the sharded stepper are
// pure scheduling changes — if any family's artifact moves by a single byte,
// the scheduler broke cycle-level determinism. machine.Config.Engine and
// .Shards are deliberately excluded from exp spec cache keys (addMachine)
// for exactly this reason: all engines share one seed per point.

// engineVariants are the configurations every family is differenced across;
// the scan engine is the reference semantics (tick every component every
// cycle, registration order). Both sharded variants imply the active engine.
// sharded4 forces the per-cycle choice to alternate, so that staged and
// direct cross-shard traffic and every transition between them run at any
// shape; auto leaves Shards at 0 with the resolver forced above its floor
// (four cores, one node per shard) and the engine on its own threshold, which
// the paper-scale rows reach and the tiny ones do not.
var engineVariants = map[string]struct {
	mutate func(*machine.Config)
	seam   func() // installs test seams; diffFamily removes them afterwards
}{
	"scan":   {mutate: func(c *machine.Config) { c.Engine = machine.EngineScan }},
	"active": {mutate: func(c *machine.Config) { c.Engine = machine.EngineActive }},
	"sharded4": {
		mutate: func(c *machine.Config) { c.Shards = 4 },
		seam:   func() { machineBuilt = alternateCycles },
	},
	"auto": {
		mutate: func(c *machine.Config) { c.Shards = 0 },
		seam:   func() { autoLimits = func() (int, int) { return 4, 1 } },
	},
}

// alternateCycles is the machineBuilt seam of the sharded test variants: odd
// cycles step in parallel, even ones serially.
func alternateCycles(m *machine.Machine) {
	m.Engine.ForceParallelForTest(func(now uint64) bool { return now&1 == 1 })
}

// diffFamily builds each family's jobs once per engine variant and compares
// canonical artifacts against the scan reference. Each exp.Run gets no
// cache: a shared cache would serve the second engine the first engine's
// results and make the test vacuous. With checked, the two sharded variants
// (the ones with a seam) also carry the invariant suite, whose violations
// fail a point: the unchecked scan reference then shows both that sharding
// changed nothing and that checking did not.
func diffFamily(t *testing.T, family string, checked bool, jobs func(mutate func(*machine.Config)) []exp.Job) {
	t.Helper()
	canonical := func(name string) []byte {
		v := engineVariants[name]
		mutate := v.mutate
		if v.seam != nil {
			limits := autoLimits
			defer func() { machineBuilt, autoLimits = nil, limits }()
			v.seam()
			if checked {
				mutate = func(c *machine.Config) { v.mutate(c); c.Check = true }
			}
		}
		rs := exp.Run(jobs(mutate), exp.Options{Name: family + "-" + name})
		if n := exp.Failed(rs); n > 0 {
			t.Fatalf("%s/%s: %d points failed: %v", family, name, n, exp.FirstErr(rs))
		}
		data, err := exp.MarshalCanonical(rs)
		if err != nil {
			t.Fatalf("%s/%s: marshal: %v", family, name, err)
		}
		return data
	}
	ref := canonical("scan")
	for name := range engineVariants {
		if name == "scan" {
			continue
		}
		t.Run(family+"/"+name, func(t *testing.T) {
			if got := canonical(name); !bytes.Equal(got, ref) {
				t.Errorf("%s: %s artifact differs from scan reference\nscan:\n%s\n%s:\n%s",
					family, name, ref, name, got)
			}
		})
	}
}

// paperShape is the engine-differential shape: the paper-scale saturation
// machine (64 nodes), big enough that traffic crosses every torus dimension
// and shard boundary.
var paperShape = topo.Shape3(8, 4, 2)

// stratShape keeps the per-strategy sweeps tiny: with four strategies, three
// engine variants, and seven families, each point must run in milliseconds.
var stratShape = topo.Shape3(2, 2, 2)

// diffRows is the differential table: one row per registered family
// (TestEveryFamilyHasDiffRow insists), giving the axes its registry entry is
// expanded with. engine panels run at paper scale across the engine variants;
// strategy panels run tiny, once per registered routing strategy — or once in
// all when the family sweeps the strategy registry itself — and checked (see
// diffFamily). The paper-scale rows stay unchecked: FinishChecks drains the
// network first, and the faultsweep row's credit-loss spec reports the credits
// the resync audit restores during that drain.
var diffRows = []struct {
	family           string
	engine, strategy []Axes
	sweepsStrategies bool
}{
	{
		family: "throughput",
		engine: []Axes{
			{Shape: paperShape, Pattern: traffic.Uniform{}, Batches: []int{8}},
			{Shape: paperShape, Pattern: traffic.NHop{N: 2}, Batches: []int{8}},
		},
		strategy: []Axes{{Shape: stratShape, Batches: []int{8}}},
	},
	{
		family: "blend",
		engine: []Axes{{Shape: paperShape, Weights: WeightsBoth, Fractions: []float64{0, 0.5}, Batch: 8}},
		// Tornado and reverse tornado coincide on a 2-ring (offset k/2 = 1
		// either way), degenerating the blend; the X dimension needs radix 4.
		strategy: []Axes{{Shape: topo.Shape3(4, 2, 2), Weights: WeightsBoth, Fractions: []float64{0.5}, Batch: 8}},
	},
	{
		// The family's calibrated ping-pong sweep is long for the scan
		// engine (every component, every cycle, one packet in flight), so
		// its engine row runs at half the paper-scale node count.
		family:   "latency",
		engine:   []Axes{{Shape: topo.Shape3(4, 4, 2)}},
		strategy: []Axes{{Shape: stratShape}},
	},
	{
		// The energy family measures a single node's mesh loop (1x1x1):
		// sharding clamps to the one node, degenerating to serial — still a
		// valid no-divergence check of the clamp path — and each strategy's
		// M-group transitions are exercised without any torus traffic.
		family:   "energy",
		engine:   []Axes{{Payload: PayloadRandom, Flits: 200}},
		strategy: []Axes{{Payload: PayloadRandom, Flits: 100}},
	},
	{
		family: "faultsweep",
		engine: []Axes{{
			Shape: paperShape, Rates: []float64{0, 0.02}, Batch: 8,
			Fault: fault.Spec{StallRate: 0.001, StallCycles: 16, CreditLossRate: 0.01},
		}},
		// One permanent outage plus background corruption: the reroute path
		// (or, for angara, the native fault-routing path) must itself be
		// engine-stable.
		strategy: []Axes{{Shape: stratShape, Rates: []float64{0.02}, Batch: 8, Fault: fault.Spec{FailLinks: 1}}},
	},
	{
		// The routecompare grid already spans the registry, so one pass
		// covers every strategy at both the healthy and faulted cells.
		family:           "routecompare",
		strategy:         []Axes{{Shape: stratShape, Batch: 4, FailLinks: []int{0, 1}}},
		sweepsStrategies: true,
	},
	{
		// The mdstep sweep spans the registry itself. The phase barriers are
		// the engine-sensitive part: each phase ends when the fabric
		// quiesces, and all three engine variants must agree on every
		// quiescence cycle.
		family: "mdstep",
		strategy: []Axes{{
			Shape:    stratShape,
			Workload: workload.Spec{HaloPackets: 4, HaloBurst: 2, Multicasts: 1, ReducePackets: 1, Timesteps: 1},
		}},
		sweepsStrategies: true,
	},
}

// diffJobs expands a family's registry entry over the given panels.
func diffJobs(t *testing.T, family string, panels []Axes, mutate func(*machine.Config)) []exp.Job {
	t.Helper()
	f, ok := FamilyByName(family)
	if !ok {
		t.Fatalf("family %q is not registered", family)
	}
	var jobs []exp.Job
	for _, a := range panels {
		if err := f.Check(&a); err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		jobs = append(jobs, f.Jobs(a, mutate)...)
	}
	return jobs
}

// engineDiff runs one family's engine row; strategyDiff its strategy row. The
// per-family Test functions below are one-line entry points into the table —
// kept so the historical test names (and the CI -run filters that select
// them) survive.
func engineDiff(t *testing.T, family string) {
	if testing.Short() {
		t.Skip("cross-engine differential sweep is slow")
	}
	for _, row := range diffRows {
		if row.family == family {
			diffFamily(t, family, false, func(mutate func(*machine.Config)) []exp.Job {
				return diffJobs(t, family, row.engine, mutate)
			})
		}
	}
}

func strategyDiff(t *testing.T, family string) {
	if testing.Short() {
		t.Skip("strategy differential sweep is slow")
	}
	for _, row := range diffRows {
		if row.family != family {
			continue
		}
		if row.sweepsStrategies {
			diffFamily(t, family, true, func(mutate func(*machine.Config)) []exp.Job {
				return diffJobs(t, family, row.strategy, mutate)
			})
			continue
		}
		// Run the cross-engine byte-stability check once per registered
		// strategy, injecting the strategy after the engine mutation.
		for _, strat := range route.Strategies() {
			t.Run(strat.Name(), func(t *testing.T) {
				diffFamily(t, family+"-"+strat.Name(), true, func(mutate func(*machine.Config)) []exp.Job {
					return diffJobs(t, family, row.strategy, func(c *machine.Config) {
						mutate(c)
						c.Scheme = strat
					})
				})
			})
		}
	}
}

// TestEveryFamilyHasDiffRow keeps the table honest: a family registered
// without a strategy-scale row (or a row naming no registered family) fails
// here, so no family can ship without differential coverage.
func TestEveryFamilyHasDiffRow(t *testing.T) {
	rows := map[string]bool{}
	for _, row := range diffRows {
		if _, ok := FamilyByName(row.family); !ok {
			t.Errorf("diff row %q names no registered family", row.family)
		}
		if len(row.strategy) == 0 {
			t.Errorf("diff row %q has no strategy-scale panels", row.family)
		}
		rows[row.family] = true
	}
	for _, f := range Families() {
		if !rows[f.Name] {
			t.Errorf("family %q has no row in diffRows", f.Name)
		}
	}
}

func TestEngineDiffThroughput(t *testing.T) { engineDiff(t, "throughput") }
func TestEngineDiffBlend(t *testing.T)      { engineDiff(t, "blend") }
func TestEngineDiffLatency(t *testing.T)    { engineDiff(t, "latency") }
func TestEngineDiffEnergy(t *testing.T)     { engineDiff(t, "energy") }
func TestEngineDiffFaultSweep(t *testing.T) { engineDiff(t, "faultsweep") }

func TestStrategyDiffThroughput(t *testing.T)   { strategyDiff(t, "throughput") }
func TestStrategyDiffBlend(t *testing.T)        { strategyDiff(t, "blend") }
func TestStrategyDiffLatency(t *testing.T)      { strategyDiff(t, "latency") }
func TestStrategyDiffEnergy(t *testing.T)       { strategyDiff(t, "energy") }
func TestStrategyDiffFaultSweep(t *testing.T)   { strategyDiff(t, "faultsweep") }
func TestStrategyDiffRouteCompare(t *testing.T) { strategyDiff(t, "routecompare") }
func TestStrategyDiffMDStep(t *testing.T)       { strategyDiff(t, "mdstep") }
