package core

import (
	"fmt"
	"io"
	"math/rand"

	"anton2/internal/arbiter"
	"anton2/internal/ckpt"
	"anton2/internal/exp"
	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// WeightMode selects how arbiter weights are programmed for the Figure 10
// blending experiment.
type WeightMode int

// Figure 10 weight configurations.
const (
	// WeightsNone uses round-robin arbitration throughout.
	WeightsNone WeightMode = iota
	// WeightsForward programs a single weight set from the tornado
	// pattern's loads.
	WeightsForward
	// WeightsReverse programs a single weight set from reverse tornado.
	WeightsReverse
	// WeightsBoth programs both patterns' weights; packets carry their
	// pattern label.
	WeightsBoth
)

func (w WeightMode) String() string {
	return [...]string{"None", "Forward", "Reverse", "Both"}[w]
}

// BlendConfig describes one Figure 10 measurement: each core's batch is
// divided between tornado and reverse-tornado traffic.
type BlendConfig struct {
	Machine machine.Config
	// ForwardFraction of packets follow tornado; the rest follow reverse
	// tornado.
	ForwardFraction float64
	Weights         WeightMode
	Batch           int
}

// BlendResult is one measured blending point.
type BlendResult struct {
	ForwardFraction float64
	Cycles          uint64
	Normalized      float64
}

// RunBlend executes one blend measurement.
func RunBlend(cfg BlendConfig) (BlendResult, error) { return runBlend(cfg, ckpt.RunConfig{}) }

// runBlend is RunBlend under a checkpoint config (see runBatch).
func runBlend(cfg BlendConfig, rc ckpt.RunConfig) (BlendResult, error) {
	fwd, rev := traffic.Tornado(), traffic.ReverseTornado()

	mcfg := cfg.Machine
	var weightPats []traffic.Pattern
	switch cfg.Weights {
	case WeightsNone:
		mcfg.Arbiter = arbiter.KindRoundRobin
	case WeightsForward:
		weightPats = []traffic.Pattern{fwd}
	case WeightsReverse:
		weightPats = []traffic.Pattern{rev}
	case WeightsBoth:
		weightPats = []traffic.Pattern{fwd, rev}
	}
	if cfg.Weights != WeightsNone {
		mcfg.Arbiter = arbiter.KindInverseWeighted
	}

	// Normalization: the blend's own saturation rate (load is linear in
	// the mixing coefficients).
	fl, err := PatternLoads(cfg.Machine, fwd)
	if err != nil {
		return BlendResult{}, err
	}
	rl, err := PatternLoads(cfg.Machine, rev)
	if err != nil {
		return BlendResult{}, err
	}
	satRate := BlendedSaturationRate([]float64{cfg.ForwardFraction, 1 - cfg.ForwardFraction}, []*loadcalc.Loads{fl, rl})
	if satRate <= 0 {
		return BlendResult{}, fmt.Errorf("core: degenerate blend saturation")
	}

	// Pattern labels: under single-weight modes every packet is labeled
	// pattern 0 (there is only one weight set); under Both, tornado
	// packets are pattern 0 and reverse packets pattern 1.
	nFwd := int(float64(cfg.Batch)*cfg.ForwardFraction + 0.5)
	_, end, _, err := runBatch(batchPoint{
		machine: mcfg,
		weights: weightPats,
		stream:  "blend",
		batch:   cfg.Batch,
		draw: func(tm *topo.Machine, src topo.NodeEp, rng *rand.Rand) (topo.NodeEp, uint8) {
			// Interleave forward/reverse sends in proportion.
			var isFwd bool
			if nFwd >= cfg.Batch {
				isFwd = true
			} else if nFwd <= 0 {
				isFwd = false
			} else {
				isFwd = rng.Float64() < cfg.ForwardFraction
			}
			if isFwd {
				return fwd.Dest(tm, src, rng), 0
			}
			var pid uint8
			if cfg.Weights == WeightsBoth {
				pid = 1
			}
			return rev.Dest(tm, src, rng), pid
		},
		maxCycles: cycleBudget(cfg.Batch, satRate, 60, 300_000),
		tag:       BlendSpec(cfg).Canonical(),
		label:     fmt.Sprintf("blend run (f=%.2f, %v)", cfg.ForwardFraction, cfg.Weights),
	}, rc)
	if err != nil {
		return BlendResult{}, err
	}
	rate := float64(cfg.Batch) / float64(end)
	return BlendResult{
		ForwardFraction: cfg.ForwardFraction,
		Cycles:          end,
		Normalized:      rate / satRate,
	}, nil
}

// The blend family (Figure 10). Axes: Shape, Weights, Fractions (the sweep),
// Batch.
func init() {
	fig10 := func(shape topo.TorusShape, batch int, fractions ...float64) []Axes {
		var panels []Axes
		for _, mode := range []WeightMode{WeightsNone, WeightsForward, WeightsReverse, WeightsBoth} {
			panels = append(panels, Axes{Shape: shape, Weights: mode, Fractions: fractions, Batch: batch})
		}
		return panels
	}
	register(&Family{
		Name:   "blend",
		Figure: "fig10",
		Title:  "Figure 10: blending tornado and reverse tornado",
		Paper:  "Both-weights ~85% across all blends; single weights fall off away from their pattern; None lowest",
		Full:   fig10(topo.Shape3(8, 8, 8), 256, 0, 0.25, 0.5, 0.75, 1),
		Quick:  fig10(topo.Shape3(4, 4, 2), 96, 0, 0.5, 1),
		Check: func(a *Axes) error {
			if err := checkShape(a); err != nil {
				return err
			}
			if err := checkUnitList("fractions", a.Fractions, "[0, 0.5, 1]"); err != nil {
				return err
			}
			return checkBatch(a)
		},
		Points: func(a Axes) (int, string) { return len(a.Fractions), "fractions" },
		Spec: func(a Axes) *exp.Spec {
			return exp.NewSpec("serve-blend").Add("shape", a.Shape).Add("weights", a.Weights).
				Add("fractions", joinBar(a.Fractions)).Add("batch", a.Batch)
		},
		Jobs: func(a Axes, mutate func(*machine.Config)) []exp.Job {
			jobs := make([]exp.Job, 0, len(a.Fractions))
			for _, f := range a.Fractions {
				mc := machine.DefaultConfig(a.Shape)
				mutate(&mc)
				jobs = append(jobs, BlendJob(BlendConfig{
					Machine:         mc,
					Weights:         a.Weights,
					ForwardFraction: f,
					Batch:           a.Batch,
				}))
			}
			return jobs
		},
		Render: func(w io.Writer, panels []Axes, rs []exp.Result) {
			fmt.Fprintf(w, "measured: %-8s", "weights")
			for _, f := range panels[0].Fractions {
				fmt.Fprintf(w, "  f=%.2f", f)
			}
			fmt.Fprintln(w, "   (f = tornado fraction)")
			for _, a := range panels {
				fmt.Fprintf(w, "          %-8v", a.Weights)
				for range a.Fractions {
					r := rs[0]
					rs = rs[1:]
					if r.Err != nil {
						fmt.Fprintf(w, "  %6s", "FAIL")
						continue
					}
					fmt.Fprintf(w, "  %6.3f", r.Value.(BlendResult).Normalized)
				}
				fmt.Fprintln(w)
			}
		},
	})
}
