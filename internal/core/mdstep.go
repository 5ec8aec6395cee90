package core

import (
	"errors"
	"fmt"
	"io"

	"anton2/internal/ckpt"
	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/trace"
	"anton2/internal/workload"
)

// The mdstep experiment family measures the machine's actual figure of
// merit: end-to-end MD timestep time. One point = one routing strategy
// running the phased workload (halo exchange, multicast force distribution,
// global reduction) on one machine config; a sweep covers the whole
// strategy registry. Unlike throughput families the headline number is
// latency-like — cycles from the first halo injection to global-reduction
// quiescence — so lower is better.

// MDStepConfig describes one mdstep point.
type MDStepConfig struct {
	// Machine carries the strategy under test in its Scheme field. Its
	// Multicast tables are derived from Workload — callers leave them nil.
	Machine machine.Config
	// Workload parameterizes the timestep (zero fields = defaults).
	Workload workload.Spec
	// MaxPhaseCycles bounds each phase (0 = a volume-scaled default).
	MaxPhaseCycles uint64
}

// MDStepPoint is one measured mdstep cell.
type MDStepPoint struct {
	Strategy string `json:"strategy"`
	// Workload is the spec canonical (defaults applied).
	Workload  string `json:"workload"`
	Timesteps int    `json:"timesteps"`

	// Phases reports every (timestep, phase) window in execution order.
	Phases []workload.PhaseResult `json:"phases"`
	// TotalCycles is the end-to-end timestep time across all timesteps;
	// TotalNS converts it at the paper's 1.5 GHz clock.
	TotalCycles       uint64  `json:"total_cycles"`
	TotalNS           float64 `json:"total_ns"`
	CyclesPerTimestep float64 `json:"cycles_per_timestep"`
}

// SimCycles lets exp record simulated cycle counts in artifacts.
func (p MDStepPoint) SimCycles() uint64 { return p.TotalCycles }

// mdstepMachine finalizes a point's machine config with the workload's
// multicast tables.
func mdstepMachine(cfg MDStepConfig) (machine.Config, workload.Spec, error) {
	mc := cfg.Machine
	spec := cfg.Workload.WithDefaults()
	if err := spec.Validate(); err != nil {
		return mc, spec, err
	}
	tm, err := topo.NewMachine(mc.Shape)
	if err != nil {
		return mc, spec, err
	}
	mc.Multicast = spec.Tables(tm)
	return mc, spec, nil
}

// RunMDStepPoint executes one mdstep measurement.
func RunMDStepPoint(cfg MDStepConfig) (MDStepPoint, error) {
	pt, _, err := runMDStep(cfg, ckpt.RunConfig{}, false)
	return pt, err
}

// RunMDStepPointCkpt is RunMDStepPoint with crash-safe checkpointing: when rc
// is enabled, the machine snapshot and the workload's Progress are persisted
// every rc.Every cycles, and when rc asks for a resume and a usable
// checkpoint exists, the run restores it, replays the RNG draws of every
// already-injected phase, and finishes bit-identically to an uninterrupted
// run.
func RunMDStepPointCkpt(cfg MDStepConfig, rc ckpt.RunConfig) (MDStepPoint, error) {
	pt, _, err := runMDStep(cfg, rc, false)
	return pt, err
}

// RunMDStepPointRecorded is RunMDStepPoint with an optional traffic capture:
// when record is set, every injection is recorded into the internal/trace
// format, and ReplayMDStepTrace replays the capture to identical per-phase
// cycle counts.
func RunMDStepPointRecorded(cfg MDStepConfig, record bool) (MDStepPoint, *trace.Trace, error) {
	return runMDStep(cfg, ckpt.RunConfig{}, record)
}

// runMDStep is the one mdstep driver: a zero rc runs without checkpoints,
// record captures the traffic. Recording does not compose with checkpointing
// (a resumed run cannot re-record what it skips).
func runMDStep(cfg MDStepConfig, rc ckpt.RunConfig, record bool) (MDStepPoint, *trace.Trace, error) {
	mc, spec, err := mdstepMachine(cfg)
	if err != nil {
		return MDStepPoint{}, nil, err
	}
	if rc.Enabled() {
		// Refuse up front rather than run on silently writing no checkpoints.
		if err := mc.Checkpointable(); err != nil {
			return MDStepPoint{}, nil, err
		}
		if record {
			return MDStepPoint{}, nil, fmt.Errorf("core: mdstep recording does not compose with checkpointing")
		}
	}
	pt := MDStepPoint{Strategy: mc.Strategy().Name(), Workload: spec.Canonical(), Timesteps: spec.Timesteps}
	m, _, err := BuildMachine(mc)
	if err != nil {
		return pt, nil, err
	}

	var from *workload.Progress
	var sink func(workload.Progress)
	if rc.Enabled() {
		tag := MDStepSpec(cfg).Canonical()
		var prog workload.Progress
		var resumed bool
		if m, resumed, err = resumeRunCkpt(m, rc, tag, &prog, nil, mc); err != nil {
			return pt, nil, err
		}
		if resumed {
			from = &prog
		}
		// The workload's engine observer hands us the driver Progress.
		w := newRunCkptWriter(rc, m, tag)
		sink = func(p workload.Progress) { w.save(p) }
	}
	var res workload.Result
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorder(spec.Header(mc.Shape, mc.Seed))
		res, err = workload.Run(m, spec, rec, cfg.MaxPhaseCycles)
	} else {
		res, err = workload.RunResumable(m, spec, cfg.MaxPhaseCycles, from, rc.Every, sink)
	}
	if err == nil {
		err = m.FinishChecks()
	}
	if err != nil {
		return pt, nil, fmt.Errorf("core: mdstep %s: %w", pt.Strategy, err)
	}
	rc.Discard()
	pt.Phases = res.Phases
	pt.TotalCycles = res.TotalCycles
	pt.TotalNS = res.TotalNS
	pt.CyclesPerTimestep = float64(res.TotalCycles) / float64(spec.Timesteps)
	var tr *trace.Trace
	if rec != nil {
		tr = rec.Trace()
	}
	return pt, tr, nil
}

// ReplayMDStepTrace rebuilds the point's machine and replays a capture
// through it, returning the replayed per-phase timing for comparison against
// the original run.
func ReplayMDStepTrace(cfg MDStepConfig, tr *trace.Trace) (workload.Result, error) {
	mc, _, err := mdstepMachine(cfg)
	if err != nil {
		return workload.Result{}, err
	}
	m, _, err := BuildMachine(mc)
	if err != nil {
		return workload.Result{}, err
	}
	res, err := workload.ReplayTrace(m, tr, cfg.MaxPhaseCycles)
	if err != nil {
		return res, err
	}
	if err := m.FinishChecks(); err != nil {
		return res, err
	}
	return res, nil
}

// MDStepSpec canonically identifies one mdstep point. The strategy enters
// through addMachine's scheme name and the workload through its canonical
// token, so the cache key pins (machine config, strategy, workload spec).
// The derived multicast tables are intentionally absent: they are a pure
// function of (shape, workload), which the key already holds.
func MDStepSpec(cfg MDStepConfig) *exp.Spec {
	s := exp.NewSpec("mdstep")
	addMachine(s, cfg.Machine)
	return s.Add("workload", cfg.Workload.WithDefaults().Canonical()).
		Add("maxcycles", cfg.MaxPhaseCycles)
}

// MDStepJob wraps one RunMDStepPoint call for the orchestrator.
func MDStepJob(cfg MDStepConfig) exp.Job {
	return pointJob(MDStepSpec(cfg), cfg, func(c *MDStepConfig) *machine.Config { return &c.Machine }, RunMDStepPoint, RunMDStepPointCkpt)
}

// MDStepJobs builds one job per registered routing strategy, in registry
// (name) order so the job list — and the artifact — is deterministic.
func MDStepJobs(base machine.Config, spec workload.Spec, maxPhaseCycles uint64) []exp.Job {
	var jobs []exp.Job
	for _, strat := range route.Strategies() {
		c := MDStepConfig{Machine: base, Workload: spec, MaxPhaseCycles: maxPhaseCycles}
		c.Machine.Scheme = strat
		jobs = append(jobs, MDStepJob(c))
	}
	return jobs
}

// The mdstep family. Axes: Shape, Workload, Strategies (the sweep: one point
// per strategy running the same phased workload; multicast tables are derived
// inside the point). The headline number is end-to-end timestep time, so
// unlike the saturation sweeps lower is better.
func init() {
	twoSteps := workload.DefaultSpec()
	twoSteps.Timesteps = 2
	register(&Family{
		Name:    "mdstep",
		Figure:  "mdstep",
		Aliases: []string{"timestep", "workload"},
		Title:   "MD timestep: phased application workload across routing strategies",
		Paper:   "timestep = halo exchange + multicast force distribution + global reduction; figure of merit is end-to-end timestep time",
		Full:    []Axes{{Shape: topo.Shape3(4, 4, 2), Workload: twoSteps}},
		Quick:   []Axes{{Shape: topo.Shape3(2, 2, 2)}},
		Check: func(a *Axes) error {
			if err := checkShape(a); err != nil {
				return err
			}
			// A workload knob out of range is blamed on that knob
			// (halopackets, timesteps, ...), not on the axis as a whole.
			a.Workload = a.Workload.WithDefaults()
			if err := a.Workload.Validate(); err != nil {
				var re *workload.RangeError
				if errors.As(err, &re) {
					return badAxis(re.Field, "%v", err)
				}
				return err
			}
			checkStrategies(a)
			return nil
		},
		Points: func(a Axes) (int, string) { return len(a.Strategies), "strategies" },
		Spec: func(a Axes) *exp.Spec {
			return exp.NewSpec("serve-mdstep").Add("shape", a.Shape).Add("workload", a.Workload.Canonical()).
				Add("strategies", joinBar(strategyNames(a.Strategies)))
		},
		Jobs: func(a Axes, mutate func(*machine.Config)) []exp.Job {
			jobs := make([]exp.Job, 0, len(a.Strategies))
			for _, strat := range a.Strategies {
				mc := machine.DefaultConfig(a.Shape)
				mc.Scheme = strat
				mutate(&mc)
				jobs = append(jobs, MDStepJob(MDStepConfig{Machine: mc, Workload: a.Workload}))
			}
			return jobs
		},
		Render: func(w io.Writer, panels []Axes, rs []exp.Result) {
			a := panels[0]
			fmt.Fprintf(w, "workload: %s on %v\n", a.Workload.Canonical(), a.Shape)
			fmt.Fprintf(w, "measured: %-12s %9s %9s %9s %11s %10s %10s\n",
				"strategy", "halo", "mcast", "reduce", "total cyc", "cyc/step", "ns/step")
			for i, r := range rs {
				if r.Err != nil {
					fmt.Fprintf(w, "          %-12s FAILED: %v\n", a.Strategies[i].Name(), r.Err)
					continue
				}
				pt := r.Value.(MDStepPoint)
				// Sum each phase across timesteps so the row reads as one
				// step's budget regardless of the timestep count.
				byPhase := map[string]uint64{}
				for _, ph := range pt.Phases {
					byPhase[ph.Phase] += ph.Cycles
				}
				steps := uint64(pt.Timesteps)
				fmt.Fprintf(w, "          %-12s %9d %9d %9d %11d %10.0f %10.1f\n",
					pt.Strategy, byPhase["halo"]/steps, byPhase["multicast"]/steps, byPhase["reduce"]/steps,
					pt.TotalCycles, pt.CyclesPerTimestep, pt.TotalNS/float64(pt.Timesteps))
			}
		},
	})
}
