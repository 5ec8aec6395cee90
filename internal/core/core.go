// Package core is the measurement harness of the reproduction: it wires the
// cycle-level simulator, the traffic patterns, the load calculator, and the
// analytic models into runners that regenerate each of the paper's
// evaluation results — throughput beyond saturation (Figure 9), traffic
// pattern blending (Figure 10), one-way message latency (Figures 11 and
// 12), router energy (Figure 13), component area (Tables 1 and 2), and the
// worst-case routing analysis (Figure 4 and permutation (1)).
package core

import (
	"fmt"
	"runtime"

	"anton2/internal/arbiter"
	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// BuildMachine constructs a simulated machine, computing inverse-weight
// tables from the given weight patterns when the configuration asks for
// inverse-weighted arbitration. It returns the machine and the per-pattern
// loads (also used for throughput normalization). Weight loads come from the
// shared per-(configuration, pattern) cache, so repeated builds across sweep
// points reuse one computation. A config still at Shards == 0 (auto) is
// resolved here, as a point running on its own.
func BuildMachine(cfg machine.Config, weightPatterns ...traffic.Pattern) (*machine.Machine, []*loadcalc.Loads, error) {
	cfg.Shards = ResolveShards(cfg, 1)
	var loads []*loadcalc.Loads
	for _, p := range weightPatterns {
		l, err := PatternLoads(cfg, p)
		if err != nil {
			return nil, nil, err
		}
		loads = append(loads, l)
	}
	if cfg.Arbiter == arbiter.KindInverseWeighted {
		if len(loads) == 0 {
			return nil, nil, fmt.Errorf("core: inverse-weighted arbitration needs at least one weight pattern")
		}
		cfg.Weights = loadcalc.BuildWeights(loads...)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if machineBuilt != nil {
		machineBuilt(m)
	}
	return m, loads, nil
}

// machineBuilt, when non-nil, sees every machine BuildMachine returns. A test
// seam: the cross-engine differential tests use it to force a sharded
// engine's per-cycle choice, so that every shape mixes parallel and serial
// cycles.
var machineBuilt func(*machine.Machine)

// nodesPerShard is the auto-sharding floor: a shard must own at least this
// many nodes. Measured on the 2-vCPU benchmark host as the wall time of a
// unit with Shards 1 against Shards 2, alternating, median of 7 per shape
// (serial over sharded, with the range of the seven pairs): the uniform
// batch-4 burst (the fig9 point) gains 1.22x at 8 nodes (2x2x2), 1.27x at 16
// (4x2x2), 1.39x at 32 (4x4x2), 1.64x at 64 (8x4x2) and 1.72x at 128 (8x4x4);
// the 4-timestep MD workload ties at 8 nodes (0.98x, 0.81-1.12), reads 1.12x
// at 16 but spreads 0.72-1.43, and gains 1.40x at 32 and 1.67x at 64. 32
// nodes is the first size where both units gain, so two shards need 32 and
// the 4x4x2 MD and burst units shard on two cores; 2x2x2 and 4x2x2 stay on
// the unsharded code path. A constant, not a knob.
const nodesPerShard = 16

// autoLimits supplies the two inputs of the auto rule that are not in the
// config: the cores this process may use and the floor. Tests replace it to
// drive the auto path on small shapes and single-core hosts.
var autoLimits = func() (procs, perShard int) { return runtime.GOMAXPROCS(0), nodesPerShard }

// ResolveShards is the one place Config.Shards == 0 (auto) becomes a number;
// any other value is an explicit choice and is returned as is. pool is how
// many points the caller runs concurrently (1 for a point on its own): auto
// is min(cores / pool, nodes / nodesPerShard), so a sweep that already fills
// the cores never oversubscribes them, and 1 — serial — on one core, below the
// floor, and wherever machine.Config.Shardable would refuse sharding.
// BuildMachine applies it with pool 1; the owners of a worker pool
// (cmd/anton2bench, serve) apply it first with their width.
func ResolveShards(cfg machine.Config, pool int) int {
	if cfg.Shards != 0 {
		return cfg.Shards
	}
	if cfg.Shardable() != nil {
		return 1
	}
	procs, floor := autoLimits()
	return autoShards(procs, pool, cfg.Shape.NumNodes(), floor)
}

func autoShards(procs, pool, nodes, nodesPerShard int) int {
	return max(1, min(procs/max(pool, 1), nodes/nodesPerShard))
}

// PatternLoads returns the expected loads of a traffic pattern for a machine
// configuration (used for normalization without building weights). Results
// are memoized per (routing configuration, pattern) and shared read-only:
// every point of a sweep — and concurrent jobs in a parallel sweep — reuse
// the first computation.
func PatternLoads(cfg machine.Config, p traffic.Pattern) (*loadcalc.Loads, error) {
	v, _, err := sharedLoads.Do(loadsKey(cfg, p), func() (any, error) {
		return computeLoads(cfg, p)
	})
	if err != nil {
		return nil, err
	}
	return v.(*loadcalc.Loads), nil
}

// patternSatRate returns a pattern's analytic loads on a machine and its
// per-core saturation rate, rejecting a pattern that places no torus load (no
// rate to normalize by).
func patternSatRate(mc machine.Config, p traffic.Pattern) (*loadcalc.Loads, float64, error) {
	loads, err := PatternLoads(mc, p)
	if err != nil {
		return nil, 0, err
	}
	satRate := loads.SaturationRate()
	if satRate <= 0 {
		return nil, 0, fmt.Errorf("core: pattern %s places no torus load", p.Name())
	}
	return loads, satRate, nil
}

// blendedSaturationRate returns the per-core saturation injection rate of a
// linear blend of pattern loads (load is linear in the mixing coefficients,
// Section 3.2).
func blendedSaturationRate(fracs []float64, loads []*loadcalc.Loads) float64 {
	if len(fracs) != len(loads) || len(loads) == 0 {
		panic("core: blend fraction/load mismatch")
	}
	maxLoad := 0.0
	for c := 0; c < topo.NumChannelAdapters; c++ {
		var l float64
		for i := range loads {
			l += fracs[i] * loads[i].Torus[c]
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	return loadcalc.SaturationRateAt(maxLoad)
}

// cycleBudget is the bound of a batch run: mult times the ideal completion
// time at the analytic saturation rate, but at least floor cycles.
func cycleBudget(batch int, satRate, mult float64, floor uint64) uint64 {
	return max(uint64(mult*(float64(batch)/satRate)), floor)
}
