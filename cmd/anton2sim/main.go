// Command anton2sim runs a single network simulation: every core on every
// node sends a batch of packets under a chosen traffic pattern and arbiter
// flavor, and the tool reports throughput, utilization, and fairness.
//
// Usage:
//
//	anton2sim [-shape 8x4x2] [-pattern uniform|1-hop|2-hop|tornado|reverse-tornado|bit-complement]
//	          [-arbiter rr|iw] [-batch 256] [-scheme anton|baseline-2n|vcless|angara] [-seed 1] [-json dir] [-check]
//	          [-fault corrupt=0.01,stall=0.001,...] [-telemetry dir]
//	          [-engine active|scan] [-shards N]
//	          [-checkpoint-dir dir -checkpoint-every N]
//	          [-cpuprofile file] [-memprofile file]
//
// -engine selects the cycle kernel: the default active-set scheduler skips
// idle components and whole idle cycles; -engine scan restores the
// reference loop that ticks every component every cycle. -shards N steps
// the machine across N goroutine shards with a deterministic phase-barrier
// merge; the default 0 is auto (GOMAXPROCS shards for a machine large enough
// to gain — -check and -telemetry runs included; serial otherwise, and under
// -engine scan) and 1 forces serial. All three produce bit-identical results
// and artifacts — the flags change only simulation speed (and are excluded
// from result cache keys).
// A flag combination that machine.Config.Validate or Checkpointable refuses
// exits 2.
//
// With -check, the run executes under the internal/check invariant suite
// (flit conservation, credit accounting, VC monotonicity, dimension order);
// any violation fails the run. Checking never perturbs results or seeds, and
// a checked run shards like any other.
//
// With -fault, the run executes under the internal/fault layer: the spec is a
// comma-joined key=value list (keys: corrupt, stall, creditloss [rates in
// 0..1], faillinks [a count]) selecting deterministic fault injection with
// go-back-N reliable-link retransmission, whose window, retry budget, stall
// length and credit-resync period are internal/fault constants. An invalid
// spec — malformed syntax, an unknown key, a negative, >1, or NaN rate — is
// rejected before any simulation starts, with exit status 2.
//
// With -checkpoint-dir and -checkpoint-every N (one without the other exits
// 2), the run persists a complete resumable snapshot (machine state plus
// driver position) every N cycles, torn-write-safe. Run again with the same
// flags, an interrupted run restarts from the last checkpoint it left and
// finishes bit-identically to an uninterrupted one, with or without -fault.
//
// With -telemetry, the run executes under the internal/telemetry collector:
// a JSON report (<dir>/anton2sim.json) with windowed channel utilization,
// per-VC occupancy histograms, and arbiter grant shares, plus a
// Perfetto-loadable <dir>/anton2sim.trace.json trace of the first four
// unicast packets injected at node 0, and a torus utilization heatmap on
// stdout. Telemetry never perturbs results or seeds, and the report and trace
// are the same bytes however the run is sharded.
// -cpuprofile and -memprofile write pprof profiles of the process.
//
// The run goes through the internal/exp orchestrator: the simulation seed is
// derived from a canonical hash of the full configuration (the -seed value
// is one input to that hash), and -json writes the structured result
// artifact under the given directory.
//
// Exit status: 0 on success, 1 if the simulation fails, 2 for invalid flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"anton2/internal/arbiter"
	"anton2/internal/core"
	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

const usageHint = "usage: anton2sim [-shape KxKxK] [-pattern name] [-arbiter rr|iw] [-batch N] [-scheme name] [-fault k=v,...] (run with -h for the full list)"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses and validates flags (exit 2 on
// rejection, with a one-line usage hint), then executes the simulation
// (exit 1 on failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("anton2sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		shapeFlag    = fs.String("shape", "8x4x2", "torus shape KxKxK")
		patternFlag  = fs.String("pattern", "uniform", "traffic pattern")
		arbFlag      = fs.String("arbiter", "rr", "arbitration: rr (round-robin) or iw (inverse-weighted)")
		batch        = fs.Int("batch", 256, "packets per core")
		schemeFlag   = fs.String("scheme", "anton", "routing strategy: any registered name (anton, baseline-2n, vcless, angara; baseline = baseline-2n)")
		seed         = fs.Uint64("seed", 1, "base random seed (hashed with the config into the run seed)")
		jsonDir      = fs.String("json", "", "write a JSON result artifact under this directory")
		checkFlag    = fs.Bool("check", false, "run under the runtime invariant-checking suite")
		faultFlag    = fs.String("fault", "", "fault-injection spec, e.g. corrupt=0.01,stall=0.001,faillinks=1")
		telemetryDir = fs.String("telemetry", "", "write a telemetry report and packet trace under this directory")
		cpuprofile   = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
		engineFlag   = fs.String("engine", "", "cycle engine: active (default) or scan (the reference every-component-every-cycle loop)")
		shardsFlag   = fs.Int("shards", 0, "step the machine across N goroutine shards (0 = auto, 1 = serial; N > 1 requires the active engine)")
		ckptDir      = fs.String("checkpoint-dir", "", "persist crash-recovery checkpoints under this directory")
		ckptEvery    = fs.Uint64("checkpoint-every", 0, "cycles between checkpoints (0 disables; requires -checkpoint-dir)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reject := func(err error) int {
		fmt.Fprintln(stderr, "anton2sim:", err)
		fmt.Fprintln(stderr, usageHint)
		return 2
	}

	shape, err := topo.ParseShape(*shapeFlag)
	if err != nil {
		return reject(err)
	}
	pattern, ok := traffic.ByName(*patternFlag)
	if !ok {
		return reject(fmt.Errorf("unknown pattern %q (valid: %s)", *patternFlag, strings.Join(traffic.Names(), ", ")))
	}
	if *batch <= 0 {
		return reject(fmt.Errorf("batch must be positive, got %d", *batch))
	}

	mc := machine.DefaultConfig(shape)
	mc.Seed = *seed
	mc.Check = *checkFlag
	name := *schemeFlag
	if name == "baseline" { // historical spelling of baseline-2n
		name = (route.BaselineScheme{}).Name()
	}
	strat, ok := route.StrategyByName(name)
	if !ok {
		return reject(fmt.Errorf("unknown scheme %q (registered: %s)", *schemeFlag, strings.Join(route.StrategyNames(), ", ")))
	}
	mc.Scheme = strat
	if mc.Arbiter, ok = arbiter.KindByName(*arbFlag); !ok {
		return reject(fmt.Errorf("unknown arbiter %q", *arbFlag))
	}
	if *faultFlag != "" {
		spec, err := fault.ParseSpec(*faultFlag)
		if err != nil {
			return reject(err)
		}
		mc.Fault = &spec
	}
	mc.Engine = *engineFlag
	mc.Shards = *shardsFlag
	var telReport *telemetry.Report
	if *telemetryDir != "" {
		mc.Telemetry = &telemetry.Options{
			Dir:  *telemetryDir,
			Name: "anton2sim",
			Sink: func(r *telemetry.Report) { telReport = r },
		}
	}
	if err := mc.Validate(); err != nil {
		return reject(err)
	}
	job := simJob(mc, pattern, *batch)

	opts := exp.Serial()
	opts.Checkpoint, err = core.CheckpointFlags(mc, *ckptDir, *ckptEvery)
	if err != nil {
		return reject(err)
	}

	stopProfiles, err := exp.StartProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "anton2sim:", err)
		return 1
	}
	err = simulate(mc, pattern, *batch, job, *jsonDir, opts, stdout, stderr, &telReport)
	stopProfiles()
	if err != nil {
		fmt.Fprintln(stderr, "anton2sim:", err)
		return 1
	}
	return 0
}

// simJob is the run's one experiment point: a fault-layer measurement under
// -fault, a Figure 9 style throughput measurement otherwise.
func simJob(mc machine.Config, pattern traffic.Pattern, batch int) exp.Job {
	if mc.Fault != nil {
		return core.FaultJob(core.FaultConfig{Machine: mc, Pattern: pattern, Batch: batch})
	}
	return core.ThroughputJob(core.ThroughputConfig{
		Machine:        mc,
		Pattern:        pattern,
		WeightPatterns: []traffic.Pattern{pattern},
		Batch:          batch,
	})
}

func simulate(mc machine.Config, pattern traffic.Pattern, batch int, job exp.Job, jsonDir string, opts exp.Options, stdout, stderr io.Writer, telReport **telemetry.Report) error {
	shape := mc.Shape
	fmt.Fprintf(stdout, "simulating %v, %d cores/node, pattern %s, %s arbiters, %s VC scheme, batch %d\n",
		shape, topo.NumRouters, pattern.Name(), mc.Arbiter, mc.Scheme.Name(), batch)
	if mc.Fault != nil {
		fmt.Fprintf(stdout, "fault layer: %s\n", mc.Fault.Canonical())
	}

	rs := exp.Run([]exp.Job{job}, opts)
	if jsonDir != "" {
		path, err := exp.WriteArtifacts(jsonDir, "anton2sim", rs)
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, "anton2sim: wrote", path)
	}
	if err := exp.FirstErr(rs); err != nil {
		return err
	}

	packets := uint64(shape.NumNodes()) * uint64(topo.NumRouters) * uint64(batch)
	fmt.Fprintf(stdout, "\n  packets delivered:      %d\n", packets)
	switch res := rs[0].Value.(type) {
	case core.ThroughputResult:
		fmt.Fprintf(stdout, "  completion time:        %d cycles (%.2f us)\n", res.Cycles, machine.CyclesToNS(float64(res.Cycles))/1000)
		fmt.Fprintf(stdout, "  normalized throughput:  %.3f (1.0 = busiest torus channel saturated)\n", res.Normalized)
		fmt.Fprintf(stdout, "  torus utilization:      mean %.1f%%, max %.1f%%\n", 100*res.MeanUtilization, 100*res.MaxUtilization)
		fmt.Fprintf(stdout, "  completion fairness:    %.4f (Jain index over per-core finish times)\n", res.Fairness)
	case core.FaultPoint:
		fmt.Fprintf(stdout, "  completion time:        %d cycles (%.2f us)\n", res.Cycles, machine.CyclesToNS(float64(res.Cycles))/1000)
		fmt.Fprintf(stdout, "  normalized throughput:  %.3f (1.0 = fault-free saturation)\n", res.Throughput)
		fmt.Fprintf(stdout, "  delivery latency:       mean %.1f cycles, p99 %.0f cycles\n", res.MeanLatency, res.P99Latency)
		if res.DegradedRun {
			fmt.Fprintf(stdout, "  outcome:                DEGRADED (completed by rerouting around failed links)\n")
		}
		for _, k := range []string{"corrupt_injected", "corrupt_detected", "retransmits", "timeouts", "stalls_injected", "credits_dropped", "links_failed", "rerouted"} {
			if v := res.Counters[k]; v > 0 {
				fmt.Fprintf(stdout, "  %-22s  %d\n", k+":", v)
			}
		}
	}
	if *telReport != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, telemetry.RenderHeatmap(*telReport))
	}
	return nil
}
