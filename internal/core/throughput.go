package core

import (
	"fmt"
	"io"
	"math/rand"

	"anton2/internal/arbiter"
	"anton2/internal/ckpt"
	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/stats"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// ThroughputConfig describes one Figure 9 style measurement: every core
// sends a batch of packets according to a traffic pattern, and throughput is
// the batch size divided by the time to receive the last packet, normalized
// so 1.0 means full utilization of the busiest torus channel.
type ThroughputConfig struct {
	Machine machine.Config
	// Pattern generates the measured traffic.
	Pattern traffic.Pattern
	// WeightPatterns program the inverse-weighted arbiters (ignored for
	// round-robin). Figure 9 uses a single set of weights based on
	// uniform traffic for all measured patterns.
	WeightPatterns []traffic.Pattern
	// PatternID labels every packet with this weight-pattern index.
	PatternID uint8
	// Batch is the number of packets each core sends.
	Batch int
}

// ThroughputResult is one measured point.
type ThroughputResult struct {
	Batch  int
	Cycles uint64
	// Normalized throughput: measured per-core rate over the analytic
	// saturation rate.
	Normalized float64
	// Torus channel utilization over the whole run (1.0 = full
	// effective bandwidth).
	MeanUtilization float64
	MaxUtilization  float64
	// Fairness is Jain's index over per-core completion times.
	Fairness float64
}

// RunThroughput executes one batch measurement.
func RunThroughput(cfg ThroughputConfig) (ThroughputResult, error) {
	return runThroughput(cfg, ckpt.RunConfig{})
}

// runThroughput is RunThroughput under a checkpoint config (see runBatch).
func runThroughput(cfg ThroughputConfig, rc ckpt.RunConfig) (ThroughputResult, error) {
	_, satRate, err := patternSatRate(cfg.Machine, cfg.Pattern)
	if err != nil {
		return ThroughputResult{}, err
	}
	m, end, acc, err := runBatch(batchPoint{
		machine: cfg.Machine,
		weights: cfg.WeightPatterns,
		stream:  "tp",
		batch:   cfg.Batch,
		draw: func(tm *topo.Machine, src topo.NodeEp, rng *rand.Rand) (topo.NodeEp, uint8) {
			return cfg.Pattern.Dest(tm, src, rng), cfg.PatternID
		},
		maxCycles: cycleBudget(cfg.Batch, satRate, 50, 200_000),
		tag:       ThroughputSpec(cfg).Canonical(),
		label:     fmt.Sprintf("throughput run (%s, batch %d)", cfg.Pattern.Name(), cfg.Batch),
	}, rc)
	if err != nil {
		return ThroughputResult{}, err
	}
	rate := float64(cfg.Batch) / float64(end) // packets/cycle/core
	_, meanU, maxU := m.TorusUtilization(nil, end)
	return ThroughputResult{
		Batch:           cfg.Batch,
		Cycles:          end,
		Normalized:      rate / satRate,
		MeanUtilization: meanU,
		MaxUtilization:  maxU,
		Fairness:        stats.JainIndex(acc.Finished),
	}, nil
}

// The throughput family (Figure 9). Axes: Shape, Pattern, Arbiter, Batches
// (the sweep). Every point uses the default machine with weights from uniform
// loads regardless of the measured pattern, as the paper does.
func init() {
	fig9 := func(shape topo.TorusShape, batches ...int) []Axes {
		var panels []Axes
		for _, pat := range []traffic.Pattern{traffic.NHop{N: 2}, traffic.Uniform{}} {
			for _, arb := range []arbiter.Kind{arbiter.KindRoundRobin, arbiter.KindInverseWeighted} {
				panels = append(panels, Axes{Shape: shape, Pattern: pat, Arbiter: arb, Batches: batches})
			}
		}
		return panels
	}
	register(&Family{
		Name:   "throughput",
		Figure: "fig9",
		Title:  "Figure 9: throughput beyond saturation",
		Paper:  "RR: uniform falls below 60%; IW: ~90% stable (8x8x8, weights from uniform loads)",
		Full:   fig9(topo.Shape3(8, 8, 8), 64, 256, 1024),
		Quick:  fig9(topo.Shape3(4, 4, 2), 32, 128),
		Check: func(a *Axes) error {
			if err := checkShape(a); err != nil {
				return err
			}
			checkPattern(a)
			if len(a.Batches) == 0 {
				return badAxis("batches", "missing (e.g. [64, 256])")
			}
			for _, b := range a.Batches {
				if b <= 0 {
					return badAxis("batches", "batch must be positive, got %d", b)
				}
			}
			return nil
		},
		Points: func(a Axes) (int, string) { return len(a.Batches), "batches" },
		Spec: func(a Axes) *exp.Spec {
			return exp.NewSpec("serve-throughput").Add("shape", a.Shape).Add("pattern", a.Pattern.Name()).
				Add("arb", a.Arbiter.Short()).Add("batches", joinBar(a.Batches))
		},
		Jobs: func(a Axes, mutate func(*machine.Config)) []exp.Job {
			jobs := make([]exp.Job, 0, len(a.Batches))
			for _, b := range a.Batches {
				mc := machine.DefaultConfig(a.Shape)
				mc.Arbiter = a.Arbiter
				mutate(&mc)
				jobs = append(jobs, ThroughputJob(ThroughputConfig{
					Machine:        mc,
					Pattern:        a.Pattern,
					WeightPatterns: []traffic.Pattern{traffic.Uniform{}},
					Batch:          b,
				}))
			}
			return jobs
		},
		Render: func(w io.Writer, panels []Axes, rs []exp.Result) {
			for _, a := range panels {
				fmt.Fprintf(w, "measured: %-8s %-16s on %v:", a.Pattern.Name(), a.Arbiter, a.Shape)
				for _, b := range a.Batches {
					r := rs[0]
					rs = rs[1:]
					if r.Err != nil {
						fmt.Fprintf(w, "  batch %4d: FAILED", b)
						continue
					}
					tr := r.Value.(ThroughputResult)
					fmt.Fprintf(w, "  batch %4d: %.3f (fair %.3f)", tr.Batch, tr.Normalized, tr.Fairness)
				}
				fmt.Fprintln(w)
			}
		},
	})
}
