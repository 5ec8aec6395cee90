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

	"anton2/internal/arbiter"
	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// BuildMachine constructs a simulated machine, computing inverse-weight
// tables from the given weight patterns when the configuration asks for
// inverse-weighted arbitration. It returns the machine and the per-pattern
// loads (also used for throughput normalization). Weight loads come from the
// shared per-(configuration, pattern) cache, so repeated builds across sweep
// points reuse one computation.
func BuildMachine(cfg machine.Config, weightPatterns ...traffic.Pattern) (*machine.Machine, []*loadcalc.Loads, error) {
	if cfg.Scheme == nil {
		cfg.Scheme = route.AntonScheme{}
	}
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
	return m, loads, nil
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

// BlendedSaturationRate returns the per-core saturation injection rate of a
// linear blend of pattern loads (load is linear in the mixing coefficients,
// Section 3.2).
func BlendedSaturationRate(fracs []float64, loads []*loadcalc.Loads) float64 {
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
	if maxLoad == 0 {
		return 0
	}
	capacity := 1000.0 / 3214.0
	return capacity / maxLoad
}

// cycleBudget is the default bound of a batch run: mult times the ideal
// completion time at the analytic saturation rate, but at least floor cycles.
func cycleBudget(batch int, satRate, mult float64, floor uint64) uint64 {
	if n := uint64(mult * (float64(batch) / satRate)); n > floor {
		return n
	}
	return floor
}
