package core

import (
	"fmt"
	"io"
	"math/rand"

	"anton2/internal/arbiter"
	"anton2/internal/ckpt"
	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/sim"
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
	// MaxCycles bounds the run (0 = a generous default).
	MaxCycles uint64
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

// tpProgress is the throughput runner's driver section in a checkpoint: the
// per-core injection counters (in (node, core) order, pinning each RNG
// stream's position), the per-endpoint outstanding-delivery counters, and the
// per-core completion times gathered so far.
type tpProgress struct {
	Sent      []int     `json:"sent"`
	Remaining []int     `json:"remaining"`
	Finished  []float64 `json:"finished"`
}

// RunThroughput executes one batch measurement.
func RunThroughput(cfg ThroughputConfig) (ThroughputResult, error) {
	return RunThroughputCkpt(cfg, ckpt.RunConfig{})
}

// RunThroughputCkpt is RunThroughput with crash-safe checkpointing: when rc
// is enabled, the machine and driver state are persisted every rc.Every
// cycles, and when rc asks for a resume and a usable checkpoint exists, the
// run restores it, fast-forwards every per-core RNG stream past the packets
// already injected, and finishes bit-identically to an uninterrupted run.
func RunThroughputCkpt(cfg ThroughputConfig, rc ckpt.RunConfig) (ThroughputResult, error) {
	if rc.Enabled() {
		// Refuse up front rather than run on silently writing no checkpoints.
		if err := cfg.Machine.Checkpointable(); err != nil {
			return ThroughputResult{}, err
		}
	}
	m, _, err := BuildMachine(cfg.Machine, cfg.WeightPatterns...)
	if err != nil {
		return ThroughputResult{}, err
	}
	_, satRate, err := patternSatRate(cfg.Machine, cfg.Pattern)
	if err != nil {
		return ThroughputResult{}, err
	}

	tm := m.Topo
	cores := tm.Chip.CoreEndpoints()
	numCores := tm.NumNodes() * len(cores)
	total := uint64(numCores * cfg.Batch)
	tag := ThroughputSpec(cfg).Canonical()

	sent := make([]int, numCores)
	remaining := make([]int, tm.NumEndpointsTotal())
	finished := make([]float64, 0, numCores)

	var prog tpProgress
	m, resumed, err := resumeRunCkpt(m, rc, tag, &prog, func() bool {
		return len(prog.Sent) == numCores && len(prog.Remaining) == len(remaining)
	}, cfg.Machine, cfg.WeightPatterns...)
	if err != nil {
		return ThroughputResult{}, err
	}
	if resumed {
		copy(sent, prog.Sent)
		copy(remaining, prog.Remaining)
		finished = append(finished, prog.Finished...)
	}

	if !resumed {
		for n := 0; n < tm.NumNodes(); n++ {
			for _, ep := range cores {
				remaining[tm.EndpointIndex(topo.NodeEp{Node: n, Ep: ep})] = cfg.Batch
			}
		}
	}
	injectBatches(m, "tp", cfg.Batch, sent, func(src topo.NodeEp, rng *rand.Rand) (topo.NodeEp, uint8) {
		return cfg.Pattern.Dest(tm, src, rng), cfg.PatternID
	})
	onDeliver := func(p *packet.Packet, now uint64) bool {
		i := tm.EndpointIndex(p.Src)
		remaining[i]--
		if remaining[i] == 0 {
			finished = append(finished, float64(now))
		}
		return false
	}
	for n := 0; n < tm.NumNodes(); n++ {
		for ep := 0; ep < topo.NumEndpoints; ep++ {
			m.Endpoint(topo.NodeEp{Node: n, Ep: ep}).OnDeliver = onDeliver
		}
	}

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = cycleBudget(cfg.Batch, satRate, 50, 200_000)
	}
	if rc.Enabled() {
		observeCkpt(m, rc, tag, func() any {
			return tpProgress{Sent: sent, Remaining: remaining, Finished: finished}
		})
	}
	end, err := m.RunUntilDelivered(total, maxCycles)
	if err != nil {
		return ThroughputResult{}, fmt.Errorf("core: throughput run (%s, batch %d): %w", cfg.Pattern.Name(), cfg.Batch, err)
	}
	if err := m.FinishChecks(); err != nil {
		return ThroughputResult{}, fmt.Errorf("core: throughput run (%s, batch %d): %w", cfg.Pattern.Name(), cfg.Batch, err)
	}

	rc.Discard()
	rate := float64(cfg.Batch) / float64(end) // packets/cycle/core
	_, meanU, maxU := m.TorusUtilization(nil, end)
	return ThroughputResult{
		Batch:           cfg.Batch,
		Cycles:          end,
		Normalized:      rate / satRate,
		MeanUtilization: meanU,
		MaxUtilization:  maxU,
		Fairness:        stats.JainIndex(finished),
	}, nil
}

// injectBatches makes every core endpoint, in (node, core) order, the source
// of batch request packets: each packet's destination and weight-pattern
// label come from draw, then its route choices from MakeRandomPacket, all on
// the core's own "<stream>-src-<node>-<ep>" RNG stream. sent counts, in the
// same order, the packets each core has already injected — all zero for a
// fresh run (nil allocates them); a resumed run passes its checkpointed
// counts and each stream is fast-forwarded past exactly those packets' draws.
func injectBatches(m *machine.Machine, stream string, batch int, sent []int,
	draw func(src topo.NodeEp, rng *rand.Rand) (dst topo.NodeEp, patternID uint8)) {
	tm := m.Topo
	cores := tm.Chip.CoreEndpoints()
	if sent == nil {
		sent = make([]int, tm.NumNodes()*len(cores))
	}
	i := 0
	for n := 0; n < tm.NumNodes(); n++ {
		for _, ep := range cores {
			src := topo.NodeEp{Node: n, Ep: ep}
			rng := sim.NewRNG(m.Cfg.Seed, fmt.Sprintf("%s-src-%d-%d", stream, n, ep))
			for k := 0; k < sent[i]; k++ {
				draw(src, rng)
				route.RandomChoices(rng)
			}
			count := &sent[i]
			m.Endpoint(src).Source = func() *packet.Packet {
				if *count >= batch {
					return nil
				}
				*count++
				dst, pid := draw(src, rng)
				return m.MakeRandomPacket(src, dst, route.ClassRequest, pid, rng)
			}
			i++
		}
	}
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
