package core

import (
	"fmt"
	"io"
	"math/rand"

	"anton2/internal/ckpt"
	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/stats"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// FaultConfig describes one faultsweep point: a fixed-batch uniform-style
// measurement run under a fault specification, reporting throughput and
// delivery-latency quantiles so degradation can be plotted against fault
// rate.
type FaultConfig struct {
	Machine machine.Config
	// Pattern generates the measured traffic.
	Pattern traffic.Pattern
	// Batch is the number of packets each core sends.
	Batch int
}

// FaultPoint is one measured faultsweep point.
type FaultPoint struct {
	// Spec echoes the fault spec's canonical form ("" = fault-free).
	Spec string `json:"spec"`
	// CorruptRate is the headline sweep axis.
	CorruptRate float64 `json:"corrupt_rate"`
	Batch       int     `json:"batch"`
	Cycles      uint64  `json:"cycles"`
	// Throughput is the measured per-core rate normalized by the
	// fault-free analytic saturation rate, so points across the sweep
	// share one scale.
	Throughput float64 `json:"throughput"`
	// MeanLatency and P99Latency are injection-to-delivery latencies in
	// cycles over every delivered packet.
	MeanLatency float64 `json:"mean_latency"`
	P99Latency  float64 `json:"p99_latency"`
	// DegradedRun marks a run that survived permanent faults by
	// rerouting (graceful degradation).
	DegradedRun bool `json:"degraded_run,omitempty"`
	// Counters snapshots the fault and reliability protocol events.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// SimCycles lets exp record simulated cycle counts in artifacts.
func (p FaultPoint) SimCycles() uint64 { return p.Cycles }

// Degraded implements exp.Degrader for result classification.
func (p FaultPoint) Degraded() bool { return p.DegradedRun }

// RunFaultPoint executes one faultsweep measurement.
func RunFaultPoint(cfg FaultConfig) (FaultPoint, error) { return runFaultPoint(cfg, ckpt.RunConfig{}) }

// runFaultPoint is RunFaultPoint under a checkpoint config (see runBatch).
func runFaultPoint(cfg FaultConfig, rc ckpt.RunConfig) (FaultPoint, error) {
	_, satRate, err := patternSatRate(cfg.Machine, cfg.Pattern)
	if err != nil {
		return FaultPoint{}, err
	}
	pt := FaultPoint{Batch: cfg.Batch}
	if cfg.Machine.Fault != nil {
		pt.Spec = cfg.Machine.Fault.Canonical()
		pt.CorruptRate = cfg.Machine.Fault.CorruptRate
	}
	_, end, acc, err := runBatch(latencyBatch(cfg.Machine, "fault", cfg.Pattern, cfg.Batch, satRate,
		FaultSpec(cfg), fmt.Sprintf("fault run (%s)", pt.Spec)), rc)
	if err != nil {
		return pt, err
	}

	pt.Cycles = end
	pt.Throughput = float64(cfg.Batch) / float64(end) / satRate
	pt.MeanLatency = stats.Mean(acc.Latencies)
	pt.P99Latency = stats.Percentile(acc.Latencies, 99)
	if st := acc.fault; st != nil {
		pt.DegradedRun = st.Degraded
		pt.Counters = st.Counters.Map()
	}
	return pt, nil
}

// latencyBatch is the batch point faultsweep and routecompare share: every
// core draws its destinations from pattern, every delivery records its
// latency, and the cycle budget is the throughput budget doubled (100x the
// lossless ideal, floor 400k cycles) — retransmission, stall and reroute
// overhead stretches completion well past the ideal.
func latencyBatch(mc machine.Config, stream string, pattern traffic.Pattern, batch int, satRate float64,
	spec *exp.Spec, label string) batchPoint {
	return batchPoint{
		machine: mc,
		stream:  stream,
		batch:   batch,
		draw: func(tm *topo.Machine, src topo.NodeEp, rng *rand.Rand) (topo.NodeEp, uint8) {
			return pattern.Dest(tm, src, rng), 0
		},
		maxCycles: cycleBudget(batch, satRate, 100, 400_000),
		latencies: true,
		tag:       spec.Canonical(),
		label:     label,
	}
}

// FaultSpec canonically identifies one faultsweep point. The fault spec
// itself enters the key through addMachine.
func FaultSpec(cfg FaultConfig) *exp.Spec {
	s := exp.NewSpec("faultsweep")
	addMachine(s, cfg.Machine)
	return s.Add("pattern", cfg.Pattern.Name()).
		Add("batch", cfg.Batch).
		Add("maxcycles", noCycleBound)
}

// FaultJob wraps one RunFaultPoint call for the orchestrator.
func FaultJob(cfg FaultConfig) exp.Job {
	return pointJob(FaultSpec(cfg), cfg, func(c *FaultConfig) *machine.Config { return &c.Machine }, RunFaultPoint, runFaultPoint)
}

// The faultsweep family. Axes: Shape, Pattern, Rates (the sweep), Batch, Fault
// (the base spec held fixed while the corruption rate is swept; the fault
// layer is attached even at rate 0).
func init() {
	register(&Family{
		Name:    "faultsweep",
		Figure:  "faultsweep",
		Aliases: []string{"robustness"},
		Title:   "Robustness: throughput and latency vs transient fault rate",
		Paper:   "reliable links mask corruption at retransmission cost; degradation is smooth, not a cliff",
		Full:    []Axes{{Shape: topo.Shape3(4, 4, 2), Rates: []float64{0, 0.0025, 0.005, 0.01, 0.02, 0.05}, Batch: 96}},
		Quick:   []Axes{{Shape: topo.Shape3(2, 2, 2), Rates: []float64{0, 0.005, 0.01, 0.02, 0.05}, Batch: 32}},
		Check: func(a *Axes) error {
			if err := checkShape(a); err != nil {
				return err
			}
			checkPattern(a)
			if err := checkUnitList("rates", a.Rates, "[0, 0.01, 0.05]"); err != nil {
				return err
			}
			return checkBatch(a)
		},
		Points: func(a Axes) (int, string) { return len(a.Rates), "rates" },
		Spec: func(a Axes) *exp.Spec {
			return exp.NewSpec("serve-faultsweep").Add("shape", a.Shape).Add("pattern", a.Pattern.Name()).
				Add("rates", joinBar(a.Rates)).Add("batch", a.Batch).Add("fault", a.Fault.Canonical())
		},
		Jobs: func(a Axes, mutate func(*machine.Config)) []exp.Job {
			jobs := make([]exp.Job, 0, len(a.Rates))
			for _, r := range a.Rates {
				mc := machine.DefaultConfig(a.Shape)
				spec := a.Fault
				spec.CorruptRate = r
				mc.Fault = &spec
				mutate(&mc)
				jobs = append(jobs, FaultJob(FaultConfig{Machine: mc, Pattern: a.Pattern, Batch: a.Batch}))
			}
			return jobs
		},
		Render: func(w io.Writer, panels []Axes, rs []exp.Result) {
			a := panels[0]
			if a.Fault != (fault.Spec{}) {
				fmt.Fprintf(w, "base fault spec: %s\n", a.Fault.Canonical())
			}
			fmt.Fprintf(w, "measured: %-8s %10s %12s %11s %12s %9s\n",
				"corrupt", "throughput", "mean latency", "p99 latency", "retransmits", "outcome")
			for i, r := range rs {
				if r.Err != nil {
					fmt.Fprintf(w, "          %-8.4f %10s\n", a.Rates[i], "FAILED")
					continue
				}
				pt := r.Value.(FaultPoint)
				outcome := "ok"
				if pt.DegradedRun {
					outcome = "degraded"
				}
				fmt.Fprintf(w, "          %-8.4f %10.3f %12.1f %11.0f %12d %9s\n",
					a.Rates[i], pt.Throughput, pt.MeanLatency, pt.P99Latency,
					pt.Counters["retransmits"], outcome)
			}
		},
	})
}
