// Command anton2bench regenerates the paper's evaluation: every table and
// figure of Section 4 plus the Section 2.4 routing analysis, printing the
// paper's reported numbers next to this reproduction's measurements.
//
// Usage:
//
//	anton2bench [-quick] [-parallel N] [-json dir] [-check] [-telemetry dir]
//	            [-fault corrupt=0.01,...] [-engine active|scan] [-shards N]
//	            [-shape KxKxK] [-cpuprofile file] [-memprofile file]
//	            [-checkpoint-dir dir -checkpoint-every N]
//	            [experiment]
//
// An experiment is an analytic result defined in this command (fig1, fig4,
// table1, deadlock, ...), a simulated family of the internal/core registry
// under its figure name, family name or an alias (fig9 = throughput, fig11 =
// latency, mdstep = timestep = workload, ...), or all, the default. -h prints
// every accepted name, generated from the experiment table and the registry.
//
// -engine selects the cycle kernel: the default active-set scheduler ticks
// only components with pending work and skips fully idle cycles; -engine
// scan restores the reference every-component-every-cycle loop. -shards N
// steps each machine across N goroutine shards with a deterministic
// phase-barrier merge; the default 0 is auto (the cores the -parallel pool
// leaves idle, for machines large enough to gain — -check and -telemetry runs
// included; serial otherwise, and under -engine scan) and 1 forces serial.
// All engine configurations produce bit-identical results and artifacts — the
// flags change simulation speed only and are excluded from result cache keys.
// A flag combination that machine.Config.Validate refuses exits 2.
//
// With -checkpoint-dir and -checkpoint-every N (one without the other exits
// 2), checkpoint-aware experiment points persist a resumable snapshot every N
// cycles; a later invocation over the same directory picks each point up from
// its last checkpoint. Resumed points are bit-identical to uninterrupted
// ones. A point is checkpoint-aware when its job carries exp.Job.RunCkpt:
// every simulated family's but fig11 (latency) and fig13 (energy). `all` runs
// those two without checkpoints, and naming one of them or an analytic
// experiment (core.ErrNoRunCkpt) exits 2.
//
// Each simulated family sweeps the panels its registry entry declares
// (core.Family.Full, or Quick under -quick): fig9 and fig10 the paper's full
// 8x8x8 (512-node) machine at batches up to 1024 and 256 packets per core
// (minutes; 4x4x2 and seconds under -quick), fig11 4x4x4, faultsweep,
// routecompare and mdstep 4x4x2. -shape overrides the machine of fig9, fig10
// and mdstep (e.g. -shape 8x4x2 for the pre-promotion scale) and of the two
// analytic results that take a machine size: fig2 (default 8x8x8; the shape
// must tile 4x4x1 backplanes) and deadlock (default 4x4x4). A shape a named
// family refuses (a single node, say) exits 2 before anything runs.
//
// The routecompare experiment scores every registered routing strategy
// head-to-head on one grid: static deadlock verdict, VC provisioning and
// network-area cost, analytic saturation rate and mean path length, measured
// throughput and delivery latency, and degradation behavior under permanent
// link outages (faillinks sweeps up from the healthy machine). Strategies are
// pluggable — see internal/route.registerStrategy — and the strategy name is
// part of every experiment cache key.
//
// The mdstep experiment measures an application-shaped figure of merit:
// end-to-end MD timestep time, with the timestep modeled as three dependent
// communication phases (bursty halo exchange, multicast force distribution
// through compiled spanning trees, global reduction) separated by
// fabric-quiescence barriers. Each registered routing strategy runs the same
// phased workload and the per-phase and total cycle counts are reported;
// the sweep then re-runs the default strategy with traffic capture enabled
// and replays the recorded trace (internal/trace JSON-lines format) on a
// fresh machine, failing unless the replay reproduces every per-phase cycle
// count exactly. With -json, the capture is written as mdstep.trace.jsonl.
//
// The faultsweep experiment sweeps transient-corruption rate under the
// internal/fault layer, measuring throughput and delivery-latency quantiles
// as the reliable-link protocol retransmits around injected faults. -fault
// supplies a base spec held fixed across the sweep (keys corrupt, stall and
// creditloss, rates in 0..1, and faillinks, a count); an invalid spec —
// malformed syntax, an unknown key, a negative, >1, or NaN rate — is rejected
// with exit status 2 before anything runs.
//
// Simulation figures fan their independent points out over a
// -parallel-sized worker pool (0 = GOMAXPROCS) with per-point seeds derived
// from the experiment specs, so any pool size produces identical results.
// With -json, each figure also writes a structured artifact
// (<dir>/<figure>.json) with per-point values, seeds, and wall times.
// With -check, every simulation runs under the internal/check invariant
// suite (flit conservation, credit accounting, VC monotonicity, dimension
// order, multicast delivery); violations fail the experiment. Checking does
// not perturb results or seeds, and a checked run shards like any other.
//
// With -telemetry, every simulated point runs under the internal/telemetry
// collector: per-point JSON reports (<dir>/<figure>-pNN.json) with windowed
// channel utilization, per-VC occupancy histograms, and arbiter grant
// shares, plus a Perfetto-loadable <dir>/<figure>-pNN.trace.json packet
// trace of the first four unicast packets injected at node 0, and a
// per-channel utilization heatmap after each figure. Telemetry, like
// checking, never perturbs results, seeds, or cache keys, and a telemetry run
// shards like any other. -cpuprofile and -memprofile write pprof profiles of
// the bench process itself.
//
// Exit status: 0 on success, 1 if any experiment fails, 2 for invalid flags
// or an unknown experiment name.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"anton2/internal/area"
	"anton2/internal/ckpt"
	"anton2/internal/core"
	"anton2/internal/deadlock"
	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/multicast"
	"anton2/internal/packaging"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/wctraffic"
)

// Flag values live at package level so the figure runners can read them; run
// binds them to a fresh FlagSet per invocation, which keeps the entry point
// testable.
var (
	quick        *bool
	parallel     *int
	jsonDir      *string
	checkFlag    *bool
	faultFlag    *string
	telemetryDir *string
	cpuprofile   *string
	memprofile   *string
	engineFlag   *string
	shardsFlag   *int
	shapeFlag    *string
	ckptDir      *string
	ckptEvery    *uint64

	// checkpoint is the validated -checkpoint-dir/-checkpoint-every pair
	// (core.CheckpointFlags); the zero value is checkpointing off.
	checkpoint exp.CheckpointOptions

	// baseFault is the parsed -fault spec; the faultsweep experiment holds
	// it fixed while sweeping corruption rate.
	baseFault *fault.Spec

	// shapeOverride is the parsed -shape value; nil means each experiment's
	// own default.
	shapeOverride *topo.TorusShape
)

// shapeOr returns the -shape override, or def without one.
func shapeOr(def topo.TorusShape) topo.TorusShape {
	if shapeOverride != nil {
		return *shapeOverride
	}
	return def
}

func registerFlags(fs *flag.FlagSet) {
	quick = fs.Bool("quick", false, "smaller machines and batches (seconds instead of minutes)")
	parallel = fs.Int("parallel", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
	jsonDir = fs.String("json", "", "write per-figure JSON artifacts under this directory")
	checkFlag = fs.Bool("check", false, "run simulations under the runtime invariant-checking suite")
	faultFlag = fs.String("fault", "", "base fault spec for faultsweep, e.g. stall=0.001,faillinks=1")
	telemetryDir = fs.String("telemetry", "", "write per-point telemetry reports and packet traces under this directory")
	cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the bench process to this file")
	memprofile = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	engineFlag = fs.String("engine", "", "cycle engine: active (default) or scan (the reference every-component-every-cycle loop)")
	shardsFlag = fs.Int("shards", 0, "step the machine across N goroutine shards (0 = auto, 1 = serial; N > 1 requires the active engine)")
	shapeFlag = fs.String("shape", "", "torus shape KxKxK of fig9, fig10 and mdstep (default: the family's panels), fig2 (8x8x8) and deadlock (4x4x4)")
	ckptDir = fs.String("checkpoint-dir", "", "persist crash-recovery checkpoints under this directory")
	ckptEvery = fs.Uint64("checkpoint-every", 0, "cycles between checkpoints (0 disables; requires -checkpoint-dir)")
}

const usageHint = "usage: anton2bench [-quick] [-parallel N] [-json dir] [-check] [-fault k=v,...] [experiment] (run with -h for the full list)"

// resultCache memoizes simulation points across figures within one
// invocation, so `all` never re-runs a shared configuration.
var resultCache = exp.NewCache()

// experiment is one runnable name.
type experiment struct {
	name string
	run  func() error
}

// experiments lists every experiment in `all` execution order — the analytic
// results, then the simulated families of the core registry — and aliases
// maps every other accepted spelling onto an experiment name.
var experiments, aliases = func() ([]experiment, map[string]string) {
	exps := []experiment{
		{"fig4", fig4}, {"deadlock", deadlockCheck}, {"fig1", fig1}, {"fig2", fig2}, {"fig3", fig3},
		{"table1", table1}, {"table2", table2}, {"fig12", fig12},
	}
	names := map[string]string{"decomposition": "fig12"}
	for _, f := range core.Families() {
		exps = append(exps, experiment{f.Figure, func() error { return runFamily(f) }})
		for _, alias := range append([]string{f.Name}, f.Aliases...) {
			if alias != f.Figure {
				names[alias] = f.Figure
			}
		}
	}
	return exps, names
}()

func validNames() []string {
	names := make([]string, 0, len(experiments)+len(aliases)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	for a := range aliases {
		names = append(names, a)
	}
	names = append(names, "all")
	sort.Strings(names)
	return names
}

// benchFlags applies the -check/-engine/-shards wiring to a machine config;
// every simulated family's configs pass through it. Engine and Shards are
// pure scheduling choices — excluded from experiment cache keys because they
// cannot change results (the cross-engine differential tests in
// internal/core pin that).
func benchFlags(mc *machine.Config) {
	mc.Check = *checkFlag
	mc.Engine = *engineFlag
	mc.Shards = *shardsFlag
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the testable entry point: it parses and validates flags (exit 2 on
// rejection, with a one-line usage hint), then dispatches the requested
// experiments.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("anton2bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	registerFlags(fs)
	// The -h text lists the accepted experiment names from the experiment
	// table, so a new one cannot be left out, then the flags.
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: anton2bench [flags] [%s]\nflags:\n", strings.Join(validNames(), "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reject := func(err error) int {
		fmt.Fprintln(stderr, "anton2bench:", err)
		fmt.Fprintln(stderr, usageHint)
		return 2
	}
	if *parallel < 0 {
		return reject(fmt.Errorf("parallel must be >= 0, got %d", *parallel))
	}
	baseFault = nil
	if *faultFlag != "" {
		spec, err := fault.ParseSpec(*faultFlag)
		if err != nil {
			return reject(err)
		}
		baseFault = &spec
	}
	// The flags' mode combination, validated on the config every simulated
	// point's machine will carry (the shape plays no part).
	mc := machine.DefaultConfig(topo.TorusShape{})
	benchFlags(&mc)
	if *telemetryDir != "" {
		mc.Telemetry = &telemetry.Options{}
	}
	mc.Fault = baseFault
	if err := mc.Validate(); err != nil {
		return reject(err)
	}
	var err error
	if checkpoint, err = core.CheckpointFlags(*ckptDir, *ckptEvery); err != nil {
		return reject(err)
	}
	shapeOverride = nil
	if *shapeFlag != "" {
		shape, err := topo.ParseShape(*shapeFlag)
		if err != nil {
			return reject(err)
		}
		shapeOverride = &shape
	}

	stopProfiles, err := exp.StartProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "anton2bench:", err)
		return 1
	}
	defer stopProfiles()

	what := "all"
	if fs.NArg() > 0 {
		what = fs.Arg(0)
	}
	if fig, ok := aliases[what]; ok {
		what = fig
	}
	if what == "all" {
		failed := 0
		for _, e := range experiments {
			if err := e.run(); err != nil {
				fmt.Fprintf(stderr, "anton2bench: %s failed: %v\n", e.name, err)
				failed++
			}
			fmt.Println()
		}
		if failed > 0 {
			fmt.Fprintf(stderr, "anton2bench: %d of %d experiments failed\n", failed, len(experiments))
			return 1
		}
		return 0
	}
	for _, e := range experiments {
		if e.name == what {
			if err := checkExperiment(what); err != nil {
				return reject(err)
			}
			if err := e.run(); err != nil {
				fmt.Fprintf(stderr, "anton2bench: %s failed: %v\n", e.name, err)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "anton2bench: unknown experiment %q (valid: %s)\n",
		what, strings.Join(validNames(), ", "))
	return 2
}

// checkExperiment refuses what the flags make of the named experiment before
// it runs: a family whose axes they leave invalid (a -shape it cannot take)
// and, under checkpointing, an experiment none of whose jobs carries
// exp.Job.RunCkpt (an analytic experiment has no jobs).
func checkExperiment(name string) error {
	var jobs []exp.Job
	if f, ok := core.FamilyByName(name); ok {
		var err error
		if _, jobs, err = familyJobs(f); err != nil {
			return err
		}
	}
	if checkpoint.Every > 0 && !slices.ContainsFunc(jobs, func(j exp.Job) bool { return j.RunCkpt != nil }) {
		return core.ErrNoRunCkpt
	}
	return nil
}

// telemetryOpts returns a per-point telemetry factory for one figure: nil
// options when -telemetry is off, otherwise distinct artifact names
// <fig>-p00, <fig>-p01, ... under the -telemetry directory. The last report
// to finish feeds the post-sweep heatmap. Points served from the in-process
// result cache never run, so they write no artifact.
func telemetryOpts(fig string) func() *telemetry.Options {
	if *telemetryDir == "" {
		return func() *telemetry.Options { return nil }
	}
	seq := 0
	return func() *telemetry.Options {
		name := fmt.Sprintf("%s-p%02d", fig, seq)
		seq++
		return &telemetry.Options{Dir: *telemetryDir, Name: name, Sink: keepHeatmapReport}
	}
}

var (
	heatmapMu     sync.Mutex
	heatmapReport *telemetry.Report
)

// keepHeatmapReport is the telemetry sink; parallel workers may finish
// concurrently.
func keepHeatmapReport(r *telemetry.Report) {
	heatmapMu.Lock()
	heatmapReport = r
	heatmapMu.Unlock()
}

// printHeatmap renders the most recent telemetry report's channel
// utilization; a no-op when no report was collected.
func printHeatmap() {
	heatmapMu.Lock()
	r := heatmapReport
	heatmapReport = nil
	heatmapMu.Unlock()
	if r != nil {
		fmt.Print(telemetry.RenderHeatmap(r))
	}
}

// sweep runs one figure's jobs through the orchestrator, writes artifacts
// when -json is set, and returns the results plus an error covering any
// failed points (the healthy points are still returned and printed).
func sweep(name string, jobs []exp.Job) ([]exp.Result, error) {
	opts := exp.Options{
		Name:        name,
		Parallelism: *parallel,
		Cache:       resultCache,
		Progress:    os.Stderr,
		Checkpoint:  checkpoint,
	}
	rs := exp.Run(jobs, opts)
	if *jsonDir != "" {
		path, err := exp.WriteArtifacts(*jsonDir, name, rs)
		if err != nil {
			return rs, err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s\n", name, path)
		// Also write the canonical (comparison-format) artifact: the exact
		// bytes anton2serve returns for an identical sweep, which lets CI
		// diff server responses against bench output byte for byte.
		canon, err := exp.MarshalCanonical(rs)
		if err != nil {
			return rs, err
		}
		cpath := filepath.Join(*jsonDir, name+".canonical.json")
		if err := ckpt.AtomicWriteFile(cpath, canon); err != nil {
			return rs, err
		}
	}
	var err error
	if n := exp.Failed(rs); n > 0 {
		err = fmt.Errorf("%d of %d points failed: %w", n, len(rs), exp.FirstErr(rs))
	}
	return rs, err
}

// benchExtras are the anton2bench-only behaviours of individual families:
// which ones the -shape override applies to (the headline saturation sweeps,
// whose default is the paper's full 512-node machine, and mdstep), and a step
// to run after a clean sweep.
var benchExtras = map[string]struct {
	shapeFlag bool
	after     func(core.Axes) error
}{
	"throughput": {shapeFlag: true},
	"blend":      {shapeFlag: true},
	"mdstep":     {shapeFlag: true, after: mdstepReplayCheck},
}

// familyJobs expands one registry entry into what a run of it sweeps: the
// family's full or -quick panels, with the -shape and -fault overrides
// applied and checked, and the jobs they expand into, whose machine configs
// carry the bench flags.
func familyJobs(f *core.Family) ([]core.Axes, []exp.Job, error) {
	panels := f.Full
	if *quick {
		panels = f.Quick
	}
	checked := make([]core.Axes, len(panels))
	points := 0
	for i, a := range panels {
		if shapeOverride != nil && benchExtras[f.Name].shapeFlag {
			a.Shape = *shapeOverride
		}
		if baseFault != nil {
			a.Fault = *baseFault
		}
		if err := f.Check(&a); err != nil {
			return nil, nil, err
		}
		checked[i] = a
		n, _ := f.Points(a)
		points += n
	}
	// Auto-sharding gets the cores the sweep's worker pool leaves idle.
	pool := exp.Options{Parallelism: *parallel}.Workers(points)
	tel := telemetryOpts(f.Figure)
	mutate := func(mc *machine.Config) {
		benchFlags(mc)
		mc.Telemetry = tel()
		mc.Shards = core.ResolveShards(*mc, pool)
	}
	var jobs []exp.Job
	for _, a := range checked {
		jobs = append(jobs, f.Jobs(a, mutate)...)
	}
	return checked, jobs, nil
}

// runFamily regenerates one simulated figure from its registry entry: the
// jobs of familyJobs, swept, and printed by the family's own renderer.
func runFamily(f *core.Family) error {
	header(f.Title, f.Paper)
	checked, jobs, err := familyJobs(f)
	if err != nil {
		return err
	}
	extras := benchExtras[f.Name]
	rs, sweepErr := sweep(f.Figure, jobs)
	f.Render(os.Stdout, checked, rs)
	printHeatmap()
	if sweepErr != nil || extras.after == nil {
		return sweepErr
	}
	return extras.after(checked[0])
}

func header(title, paper string) {
	fmt.Println(title)
	for range title {
		fmt.Print("-")
	}
	fmt.Println()
	fmt.Println("paper:   ", paper)
}

func fig4() error {
	header("Figure 4 / permutation (1): worst-case on-chip switching",
		"optimized direction order limits worst-case mesh load to 2 torus channels")
	cfg := route.NewConfig(topo.MustMachine(topo.Shape3(6, 6, 6)))
	winners, best := wctraffic.Best(cfg)
	noExit := *cfg
	noExit.ExitSkip = false
	_, throughOnly := wctraffic.Best(&noExit)
	fmt.Printf("measured: best worst-case load %.1f (through-only skips: %.1f)\n", best, throughOnly)
	fmt.Printf("          %d of 24 direction orders achieve it; default %v", len(winners), topo.DefaultDirOrder)
	for _, w := range winners {
		if w.Order == topo.DefaultDirOrder {
			fmt.Printf(" is among them")
			break
		}
	}
	fmt.Println()
	def := wctraffic.Evaluate(cfg)
	fmt.Printf("          worst-case permutation under the default order:\n")
	fmt.Printf("            in:  X+  X-  Y+  Y-  Z+  Z-\n            out:")
	for _, d := range def.WorstPerm {
		fmt.Printf(" %3v", d)
	}
	fmt.Println()
	fmt.Printf("          mesh channels it loads with 2 or more torus channels:\n")
	for i, l := range wctraffic.Loads(cfg, def.WorstPerm) {
		ch := &cfg.Machine.Chip.IntraChans[i]
		if l >= 2 && ch.From.Kind == topo.LocRouter && ch.To.Kind == topo.LocRouter {
			fmt.Printf("            %-12s %.1f\n", ch.Name, l)
		}
	}
	fmt.Printf("          worst-case load of every direction order (* = optimal):\n")
	for _, r := range wctraffic.SearchAll(cfg) {
		mark, note := " ", ""
		if r.WorstLoad == best {
			mark = "*"
		}
		switch r.Order {
		case topo.DefaultDirOrder:
			note = "  (default)"
		case topo.PaperDirOrder:
			note = "  (the paper's published order, for its own layout)"
		}
		fmt.Printf("          %s %v  %.1f%s\n", mark, r.Order, r.WorstLoad, note)
	}
	return nil
}

func deadlockCheck() error {
	header("Section 2.5: VC schemes", "Anton scheme needs n+1=4 T-group VCs per class (vs 2n=6), deadlock-free")
	shape := shapeOr(topo.Shape3(4, 4, 4))
	// Every registered strategy must verify acyclic; the deliberately broken
	// no-dateline scheme (never registered) must be caught, proving the
	// analyzer has teeth — wherever it is broken: a ring of radix 3 or less
	// is crossed in one hop, which closes no cycle.
	longRing := false
	for _, k := range shape.K {
		longRing = longRing || k >= 4
	}
	var failed []string
	for _, s := range append(route.Strategies(), route.NoDatelineScheme{}) {
		cfg := route.NewConfig(topo.MustMachine(shape))
		cfg.Scheme = s
		err := deadlock.Verify(cfg)
		verdict := "deadlock-free"
		if err != nil {
			verdict = "CYCLE FOUND"
		}
		_, registered := route.StrategyByName(s.Name())
		if wantCycle := !registered && longRing; wantCycle != (err != nil) {
			failed = append(failed, s.Name())
		}
		fmt.Printf("measured: %-18s T:%d M:%d VCs/class on %v -> %s\n", s.Name(), s.TorusVCs(), s.MeshVCs(), shape, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("wrong deadlock verdict for: %s", strings.Join(failed, ", "))
	}
	return nil
}

func fig1() error {
	header("Figure 1: on-chip network", "16 routers in a 4x4 mesh, 23 endpoint adapters, 12 torus-channel adapters; skip channels join the X corners")
	chip := topo.DefaultChip()
	fmt.Printf("measured: %d routers in a %dx%d mesh, %d endpoint adapters, %d torus-channel adapters\n",
		topo.NumRouters, topo.MeshW, topo.MeshH, topo.NumEndpoints, topo.NumChannelAdapters)
	for v := topo.MeshH - 1; v >= 0; v-- {
		fmt.Print("         ")
		for u := 0; u < topo.MeshW; u++ {
			r := chip.RouterAt(topo.MeshCoord{U: u, V: v})
			var eps, ads int
			for _, p := range r.Ports {
				switch p.Kind {
				case topo.PortEndpoint:
					eps++
				case topo.PortAdapter:
					ads++
				}
			}
			tag := " "
			if r.SkipPort() >= 0 {
				tag = "*"
			}
			fmt.Printf("  R%d,%d%s[E:%d C:%d]", u, v, tag, eps, ads)
		}
		fmt.Println()
	}
	fmt.Println("          * = skip-channel corner router; E, C = endpoint, channel adapters attached")
	fmt.Print("          channel adapters:")
	for i := range chip.Adapters {
		if i%4 == 0 {
			fmt.Print("\n          ")
		}
		a := &chip.Adapters[i]
		fmt.Printf("  C%-5s at %v", a.ID, a.Router)
	}
	fmt.Print("\n          skip channels:")
	for _, p := range chip.SkipPairs {
		fmt.Printf("  %v <-> %v", p[0], p[1])
	}
	fmt.Println()
	return nil
}

func fig2() error {
	header("Figure 2: packaging", "512 nodes = 32 backplanes (16 nodecards each) in 4 racks")
	plan, err := packaging.Build(shapeOr(topo.Shape3(8, 8, 8)))
	if err != nil {
		return err
	}
	fmt.Printf("measured: %d backplanes in %d racks; media:\n", plan.NumBackplanes(), plan.NumRacks())
	stats := plan.Stats()
	for _, m := range []packaging.Medium{packaging.BackplaneTrace, packaging.IntraRackCable, packaging.InterRackCable} {
		s := stats[m]
		if s.Links == 0 {
			continue // a machine of one rack has no inter-rack cable
		}
		l := packaging.Link{Medium: m, LengthCM: s.TotalCM / float64(s.Links)}
		fmt.Printf("            %-18s %5d links, latency %2d cycles\n", m, s.Links, l.LatencyCycles())
	}
	return nil
}

func fig3() error {
	header("Figure 3: multicast", "broadcast to a plane neighborhood saves 12 torus hops vs unicast")
	shape := topo.Shape3(8, 8, 8)
	root := topo.NodeCoord{X: 4, Y: 4, Z: 4}
	dests := multicast.PlaneNeighborhood(shape, root, topo.DimX, topo.DimY, 1, 0)
	tree := multicast.Build(shape, root, dests, topo.AllDimOrders[0], 0)
	uni := multicast.UnicastHops(shape, root, dests)
	fmt.Printf("measured: 8-node plane neighborhood: unicast %d hops, multicast tree %d hops, saved %d\n",
		uni, tree.TorusHops(), uni-tree.TorusHops())
	two := multicast.PlaneNeighborhood(shape, root, topo.DimX, topo.DimY, 1, 5)
	both := append(append([]topo.NodeEp(nil), dests...), two...)
	treeB := multicast.Build(shape, root, both, topo.AllDimOrders[0], 0)
	uniB := multicast.UnicastHops(shape, root, both)
	fmt.Printf("          with 2 endpoint copies per node: unicast %d, tree %d, saved %d (savings multiply)\n",
		uniB, treeB.TorusHops(), uniB-treeB.TorusHops())
	return nil
}

func table1() error {
	header("Table 1: component die area", "router 3.4%, endpoint adapter 1.1%, channel adapter 4.7%")
	t1 := area.Compute(route.AntonScheme{}).Table1()
	fmt.Printf("measured: router %.1f%%, endpoint adapter %.1f%%, channel adapter %.1f%% (total %.1f%% < 10%%)\n",
		t1[area.Router], t1[area.EndpointAdapter], t1[area.ChannelAdapter],
		t1[area.Router]+t1[area.EndpointAdapter]+t1[area.ChannelAdapter])
	return nil
}

func table2() error {
	header("Table 2: network area by category",
		"queues 46.6, reduction 9.6, link 8.9, config 8.6, debug 7.8, misc 7.3, multicast 5.7, arbiters 5.4 (%)")
	byComp, total := area.Compute(route.AntonScheme{}).Table2()
	fmt.Printf("measured: %-14s %8s %9s %8s %7s\n", "category", "router", "endpoint", "channel", "total")
	for k := area.Category(0); k < area.NumCategories; k++ {
		fmt.Printf("          %-14s %8.1f %9.1f %8.1f %7.1f\n",
			k, byComp[area.Router][k], byComp[area.EndpointAdapter][k], byComp[area.ChannelAdapter][k], total[k])
	}
	growth := area.RatioVsAnton(route.BaselineScheme{}) - 1
	fmt.Printf("          ablation: baseline 2n-VC scheme costs +%.1f%% network area\n", 100*growth)
	return nil
}

func fig12() error {
	header("Figure 12: minimum-latency decomposition", "99 ns nearest-neighbor one-way; network only ~40%")
	cfg := core.DefaultLatencyConfig(topo.Shape3(4, 4, 4))
	cfg.Machine.Check = *checkFlag
	cfg.Machine.Telemetry = telemetryOpts("fig12")()
	defer printHeatmap()
	comps := core.DecomposeMinLatency(cfg)
	var total, network float64
	for _, c := range comps {
		total += c.NS
		if c.Name != "software send" && c.Name != "sync + handler dispatch" {
			network += c.NS
		}
	}
	fmt.Println("analytic budget:")
	for _, c := range comps {
		fmt.Printf("          %-30s %5.1f ns\n", c.Name, c.NS)
	}
	fmt.Printf("          total %.1f ns, network share %.0f%%\n", total, 100*network/total)
	traced, err := core.MeasureDecomposition(cfg)
	if err != nil {
		return err
	}
	fmt.Println("traced packet (simulated):")
	for _, c := range traced {
		fmt.Printf("          %-30s %5.1f ns\n", c.Name, c.NS)
	}
	fmt.Printf("          total %.1f ns\n", core.TotalNS(traced))
	return nil
}
