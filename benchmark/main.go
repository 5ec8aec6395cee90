// Command benchmark is the repository's performance benchmark: five
// workloads, from one 8x8x8 fig9 point to a POST on anton2serve, each run in a
// process of its own. An untraced run of a workload reports the end-to-end
// metrics; a traced run reports the per-layer metrics and writes its spans.
// README.md in this directory says why each workload and size was chosen.
//
//	go run ./benchmark -seed 1 -out bench.json          every workload, untraced then traced
//	go run ./benchmark -workload md_ckpt -trace 0       one workload, end-to-end metrics
//	go run ./benchmark -sets 2                          repeatability of the end-to-end metrics
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer mirror BENCHMARK.json (harness_test.go holds them
// equal). Every workload reports every metric; what a workload's unit of work
// and its work items are is set out under "End-to-end metrics" in README.md.
var endToEnd = []metricDef{
	{Name: "run_wall_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = []metricDef{
	{Name: "sim.wake_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.idle_jump_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.far_wake_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.scan_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.sat_cycles", Unit: "count", Better: "lower"},
	{Name: "machine.sat_cycles_per_s", Unit: "1/s", Better: "higher"},
	{Name: "machine.sat_ns_per_torus_flit", Unit: "ns", Better: "lower"},
	{Name: "machine.sat_active_over_scan", Unit: "ratio", Better: "higher"},
	{Name: "machine.sat_sharded2_over_active", Unit: "ratio", Better: "higher"},
	{Name: "machine.iw_over_rr_wall", Unit: "ratio", Better: "lower"},
	{Name: "machine.alloc_mb_per_sat_run", Unit: "MB", Better: "lower"},
	{Name: "machine.allocs_per_packet", Unit: "allocs", Better: "lower"},
	{Name: "machine.sparse_cycles_per_s", Unit: "1/s", Better: "higher"},
	{Name: "machine.sparse_active_over_scan_8x4x2", Unit: "ratio", Better: "higher"},
	{Name: "machine.new_ms_8x8x8", Unit: "ms", Better: "lower"},
	{Name: "machine.new_ms_4x4x2", Unit: "ms", Better: "lower"},
	{Name: "machine.make_packet_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.snapshot_json_mb", Unit: "MB", Better: "lower"},
	{Name: "machine.check_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "machine.telemetry_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ckpt.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ckpt.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ckpt.atomic_write_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "count", Better: "lower"},
	{Name: "ckpt.writes_per_run", Unit: "count", Better: "lower"},
	{Name: "ckpt.wall_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadcalc.compute_s_8x8x8_uniform", Unit: "s", Better: "lower"},
	{Name: "loadcalc.compute_ms_4x4x2_uniform", Unit: "ms", Better: "lower"},
	{Name: "loadcalc.build_weights_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_machine_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pattern_loads_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.point_self_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.run_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.tables_ms", Unit: "ms", Better: "lower"},
	{Name: "route.random_choices_ns", Unit: "ns", Better: "lower"},
	{Name: "route.choose_ns.anton", Unit: "ns", Better: "lower"},
	{Name: "route.choose_ns.vcless", Unit: "ns", Better: "lower"},
	{Name: "arbiter.rr_pick_ns", Unit: "ns", Better: "lower"},
	{Name: "arbiter.iw_pick_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.uniform_dest_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "exp.pool_us_per_job", Unit: "us", Better: "lower"},
	{Name: "exp.spec_hash_ns", Unit: "ns", Better: "lower"},
	{Name: "exp.marshal_canonical_us", Unit: "us", Better: "lower"},
	{Name: "exp.write_json_ms", Unit: "ms", Better: "lower"},
	{Name: "exp.parallel2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "serve.parse_us", Unit: "us", Better: "lower"},
	{Name: "serve.id_us", Unit: "us", Better: "lower"},
	{Name: "serve.store_load_us", Unit: "us", Better: "lower"},
	{Name: "serve.store_load_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "serve.store_save_us", Unit: "us", Better: "lower"},
	{Name: "serve.wal_save_us", Unit: "us", Better: "lower"},
	{Name: "serve.new_server_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_req_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_runs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.warm_req_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.warm_req_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.disk_req_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.disk_req_p90_us", Unit: "us", Better: "lower"},
	{Name: "serve.hits_flight", Unit: "count", Better: "higher"},
	{Name: "serve.hits_memory", Unit: "count", Better: "higher"},
	{Name: "serve.hits_disk", Unit: "count", Better: "higher"},
	{Name: "serve.misses", Unit: "count", Better: "lower"},
	{Name: "serve.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "serve.sim_cycles_total", Unit: "count", Better: "lower"},
	{Name: "serve.cold_self_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.reference_ms", Unit: "ms", Better: "lower"},
}

// workloadNames fixes the order workloads run and print in.
var workloadNames = []string{"sat_8x8x8", "sparse_pingpong", "md_timestep", "md_ckpt", "serve_mix"}

//go:embed pins.json
var pinsJSON []byte

// pinsPath is where -update-pins rewrites the pins, relative to the
// repository root the command is run from.
const pinsPath = "benchmark/pins.json"

// pinnedSeed is the only seed whose simulated outputs are pinned; any other
// falls back to repetition-0 equality and cross-tier byte equality.
const pinnedSeed = 1

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      string
	out        string
	spans      string
	sets       int
	updatePins bool
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", pinnedSeed, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "how long an untraced run measures, per workload")
	flag.StringVar(&o.trace, "trace", "", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; empty: 0 with -workload, else both")
	flag.StringVar(&o.out, "out", "", "write every result as JSON to this file (spans go to <out>.spans.json)")
	flag.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default .bench_build/<workload>.spans.json)")
	flag.IntVar(&o.sets, "sets", 0, "run N untraced sets back to back and report each end-to-end metric's spread against its bound")
	flag.BoolVar(&o.updatePins, "update-pins", false, "rewrite "+pinsPath+" from this run's simulated outputs (seed 1 only)")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != "" && o.trace != "0" && o.trace != "1") || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	if o.updatePins && o.seed != pinnedSeed {
		fmt.Fprintf(os.Stderr, "benchmark: pins are taken at seed %d only\n", pinnedSeed)
		return 2
	}
	var err error
	switch {
	case o.workload != "":
		err = runOne(o)
	case o.sets > 0:
		err = runSets(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// ---- one workload in this process --------------------------------------------

// tempRoot holds stores and checkpoint files: inside the working directory, so
// the run touches nothing outside its checkout and fsync cost is that of the
// checkout's file system.
const tempRoot = ".bench_build"

// measured is what one run of a workload produced.
type measured struct {
	values            map[string]float64
	out               any // simulated outputs: compared with pins.json at seed 1
	attempted, failed int
}

func runOne(o options) error {
	if err := os.MkdirAll(tempRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tempRoot, o.workload+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	traced := o.trace == "1"
	defs := endToEnd
	var m measured
	if traced {
		defs = perLayer
		tr := newTracer()
		m, err = runTraced(o, tr, tmp)
		spans := o.spans
		if spans == "" {
			spans = filepath.Join(tempRoot, o.workload+".spans.json")
		}
		if werr := tr.WriteFile(spans); werr != nil && err == nil {
			err = werr
		}
	} else {
		m, err = runUntraced(o, tmp)
	}
	if err != nil {
		return err
	}
	if bad, err := checkPins(o, m.out); err != nil {
		return err
	} else if bad {
		m.failed++
	}
	res, err := collect(defs, m.values, m.attempted, m.failed)
	if err != nil {
		return err
	}
	fmt.Printf("%s seed %d trace %v: %d operations, %d failed\n", o.workload, o.seed, traced, m.attempted, m.failed)
	res.print(defs)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkPins compares a seed-1 run's simulated outputs with pins.json, or
// rewrites the workload's section under -update-pins.
func checkPins(o options, out any) (mismatch bool, err error) {
	if o.seed != pinnedSeed {
		return false, nil
	}
	got, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	pins := map[string]json.RawMessage{}
	if o.updatePins {
		// Sections are rewritten one workload at a time: start from the file,
		// not from the copy embedded when this binary was built.
		if b, rerr := os.ReadFile(pinsPath); rerr == nil {
			pinsJSON = b
		}
	}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return false, fmt.Errorf("pins.json: %w", err)
	}
	if o.updatePins {
		pins[o.workload] = got
		b, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			return false, err
		}
		return false, os.WriteFile(pinsPath, append(b, '\n'), 0o644)
	}
	want, ok := pins[o.workload]
	if !ok {
		return false, fmt.Errorf("pins.json has no section for %s (run with -update-pins)", o.workload)
	}
	diffs, err := diffJSON(want, got)
	if err != nil {
		return false, err
	}
	for _, d := range diffs {
		fmt.Printf("  PIN MISMATCH %s %s\n", o.workload, d)
	}
	return len(diffs) > 0, nil
}

func findSim(name string) (simWorkload, error) {
	for _, w := range simWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return simWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// runUntraced measures one workload for o.seconds with tracing off.
func runUntraced(o options, tmp string) (measured, error) {
	host, err := newHostSpeed()
	if err != nil {
		return measured{}, err
	}
	defer host.close()
	host.sample()
	budget := time.Duration(o.seconds) * time.Second
	var m measured
	if o.workload == "serve_mix" {
		m, err = serveUntraced(o, host, tmp, budget)
	} else {
		var w simWorkload
		if w, err = findSim(o.workload); err == nil {
			m, err = simUntraced(w, host, o.seed, tmp, budget)
		}
	}
	if err != nil {
		return measured{}, err
	}
	m.values["peak_rss_mb"], err = peakRSSMB()
	return m, err
}

// setupSeconds closes set-up: it takes the reference sample that ends it and
// returns the time since process start, without the reference kernel's own
// share, as measured and normalised by every sample so far.
func setupSeconds(host *hostSpeed) (raw, normalised float64) {
	host.sample()
	raw = (time.Since(processStart) - host.spent).Seconds()
	return raw, normTime(raw, host.refMS(0, host.mark()))
}

// simUntraced runs the warm-up unit (set-up), then whole units until the next
// one would overrun the budget, at least three, sampling the reference kernel
// between units. Every unit's simulated output must equal the warm-up's.
func simUntraced(w simWorkload, host *hostSpeed, seed uint64, tmp string, budget time.Duration) (measured, error) {
	if w.prepare != nil {
		if err := w.prepare(seed); err != nil {
			return measured{}, err
		}
	}
	first, err := w.run(seed, 0, tmp)
	if err != nil {
		return measured{}, err
	}
	m := measured{values: map[string]float64{}, out: first.out, attempted: first.ops}
	timed := host.mark() // the sample that closes set-up also opens the timed window
	setup, setupNorm := setupSeconds(host)
	m.values["setup_s"] = setupNorm

	// Each unit is scaled by the reference samples on either side of it (one
	// sample, when the unit was too short for another to fall due).
	var raws, offs, walls, rates []float64
	start := time.Now()
	var last time.Duration
	for rep := 1; rep <= 3 || time.Since(start)+last <= budget; rep++ {
		t := time.Now()
		before := host.mark() - 1
		u, err := w.run(seed, rep, tmp)
		host.sampleIfDue()
		last = time.Since(t)
		m.attempted += first.ops
		if err != nil {
			fmt.Printf("  FAILED %s rep %d: %v\n", w.name, rep, err)
			m.failed++
			continue
		}
		if !reflect.DeepEqual(u.out, first.out) {
			fmt.Printf("  FAILED %s rep %d: simulated output differs from repetition 0\n", w.name, rep)
			m.failed++
		}
		ref := host.refMS(before, host.mark())
		raws = append(raws, ms(u.wall))
		walls = append(walls, normTime(ms(u.wall), ref))
		rates = append(rates, normRate(u.work/u.wall.Seconds(), ref))
		if u.off > 0 {
			offs = append(offs, ms(u.off))
		}
	}
	if len(walls) == 0 {
		return m, fmt.Errorf("%s: every repetition failed", w.name)
	}
	fmt.Printf("  unit wall, ms, as measured: %s\n  repetitions, ms: %.1f\n", summarize(raws), raws)
	fmt.Printf("  unit wall, ms, normalised: %s\n", summarize(walls))
	if len(offs) > 0 {
		fmt.Printf("  checkpoint-off twin ms, as measured: %s; on/off ratio of medians %.4g\n", summarize(offs), median(raws)/median(offs))
	}
	fmt.Printf("  set-up %.3f s as measured; %s\n", setup, host.describe(timed, host.mark()))
	m.values["run_wall_ms"] = median(walls)
	m.values["work_per_s"] = median(rates)
	return m, nil
}

// serveUntraced is serve_mix. Set-up generates and validates the specs and
// runs the small probe set through a throwaway server, which pays the
// process's one-time costs (listener, client pool, first use of each code
// path) before anything is timed. The reference kernel is sampled at every
// phase boundary; each phase is normalised by the samples on either side.
func serveUntraced(o options, host *hostSpeed, tmp string, budget time.Duration) (measured, error) {
	reqs := serveRequests(o.seed)
	warmDir, err := serveTemp(tmp, "warmup-store")
	if err != nil {
		return measured{}, err
	}
	if _, err := runServe(serveConfig{reqs: probeRequests(), seed: o.seed, warmN: 8000, restarts: 1, dir: warmDir}); err != nil {
		return measured{}, err
	}
	dir, err := serveTemp(tmp, "store")
	if err != nil {
		return measured{}, err
	}
	setup, setupNorm := setupSeconds(host)
	cold := host.mark() - 1 // samples: [cold] before the cold phase, [cold+1] after it, [cold+2] after warm
	res, err := runServe(serveConfig{reqs: reqs, seed: o.seed, budget: budget, restarts: 8, dir: dir, betweenPhases: host.sample})
	if err != nil {
		return measured{}, err
	}
	coldMS := ms(res.coldElapsed) / float64(len(res.coldUS))
	warmPerS := float64(len(res.warmUS)) / res.warmElapsed.Seconds()
	fmt.Printf("  cold us %s\n  warm us %s\n  disk us %s\n", summarize(res.coldUS), summarize(res.warmUS), summarize(res.diskUS))
	fmt.Printf("  as measured: cold phase %.2fs for %d specs, %.4g ms a run; warm phase %.2fs for %d submissions, %.6g a second\n",
		res.coldElapsed.Seconds(), len(res.coldUS), coldMS, res.warmElapsed.Seconds(), len(res.warmUS), warmPerS)
	fmt.Printf("  set-up %.3f s as measured; %s\n", setup, host.describe(0, host.mark()))
	return measured{
		values: map[string]float64{
			"setup_s":     setupNorm,
			"run_wall_ms": normTime(coldMS, host.refMS(cold, cold+2)),
			"work_per_s":  normRate(warmPerS, host.refMS(cold+1, cold+3)),
		},
		out: res.shas, attempted: res.attempted, failed: res.failed,
	}, nil
}

// runTraced measures the per-layer metrics: the cold analytic loads first,
// then one unit of the workload through its driver and once more step by step
// under spans, then every remaining probe. The per-layer numbers are as
// measured; the reference kernel's time is reported beside them so that they
// can be read against the host's speed.
func runTraced(o options, tr *Tracer, tmp string) (measured, error) {
	root := tr.Begin(0, "workload", o.workload)
	defer tr.End(root, 0)
	l := &layers{tr: tr, root: root, seed: o.seed, tmp: tmp, v: map[string]float64{}}
	host, err := newHostSpeed()
	if err != nil {
		return measured{}, err
	}
	defer host.close()
	reference := func() {
		tr.Do(root, "reference", "", 0, host.sample)
		l.v["bench.reference_ms"] = host.refMS(0, host.mark())
	}
	reference()
	if err := l.loadcalcProbes(); err != nil {
		return measured{}, err
	}
	m := measured{values: l.v}
	if o.workload == "serve_mix" {
		dir, err := serveTemp(tmp, "store")
		if err != nil {
			return m, err
		}
		res, err := runServe(serveConfig{reqs: serveRequests(o.seed), seed: o.seed, warmN: 40000, restarts: 4, dir: dir, tr: tr, parent: root})
		if err != nil {
			return m, err
		}
		if err := l.serveLayer(res, dir); err != nil {
			return m, err
		}
		l.v["core.point_self_ms"] = l.v["serve.cold_self_ms"]
		l.v["bench.trace_overhead_ratio"] = median(res.warmTracedUS) / median(res.warmUS)
		m.out, m.attempted, m.failed = res.shas, res.attempted, res.failed
	} else {
		w, err := findSim(o.workload)
		if err != nil {
			return m, err
		}
		if w.prepare != nil {
			if err := w.prepare(o.seed); err != nil {
				return m, err
			}
		}
		u, err := w.run(o.seed, 0, tmp)
		if err != nil {
			return m, err
		}
		drv := tr.Add(root, "driver", w.name, u.wall, u.work)
		start := time.Now()
		again, err := w.reenact(tr, drv, o.seed, tmp)
		tracedWall := time.Since(start)
		if err != nil {
			return m, err
		}
		m.out, m.attempted = u.out, u.ops+1
		if !reflect.DeepEqual(again, u.out) {
			fmt.Printf("  FAILED %s: the re-enacted unit's output differs from the driver's\n", w.name)
			m.failed++
		}
		l.v["core.point_self_ms"] = ms(tr.SelfTime(drv))
		l.v["bench.trace_overhead_ratio"] = tracedWall.Seconds() / u.wall.Seconds()
		if u.off > 0 {
			l.v["ckpt.wall_ratio"] = u.wall.Seconds() / u.off.Seconds()
		}
		tr.breakdown(drv, fmt.Sprintf("one %s unit through the driver, explained by its re-enacted steps", w.name))
	}
	reference()
	err = l.rest(o.workload == "serve_mix")
	reference()
	return m, err
}

// ---- every workload, each in a child process ----------------------------------

// child runs one workload in a process of its own, so that peak_rss_mb is the
// workload's alone, and returns the result line it printed last.
func child(o options, workload, trace, spans string) (Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return Result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	if o.updatePins {
		args = append(args, "-update-pins")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	for _, ln := range lines[:len(lines)-1] {
		fmt.Println("  " + ln)
	}
	if err != nil {
		fmt.Println("  " + lines[len(lines)-1])
		return Result{}, fmt.Errorf("%s (trace %s): %w", workload, trace, err)
	}
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return Result{}, fmt.Errorf("%s (trace %s): result line: %w", workload, trace, err)
	}
	return res, nil
}

// setResult is one workload's pair of runs in the -out file.
type setResult struct {
	EndToEnd *Result `json:"end_to_end,omitempty"`
	PerLayer *Result `json:"per_layer,omitempty"`
}

func runAll(o options) error {
	results := map[string]*setResult{}
	allSpans := map[string]json.RawMessage{}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, name := range workloadNames {
		sr := &setResult{}
		results[name] = sr
		if o.trace != "1" {
			fmt.Printf("== %s, untraced\n", name)
			res, err := child(o, name, "0", "")
			note(err)
			if err == nil {
				sr.EndToEnd = &res
				note(failedOps(name, res))
			}
		}
		if o.trace != "0" && !o.updatePins {
			fmt.Printf("== %s, traced\n", name)
			spans := filepath.Join(tempRoot, name+".spans.json")
			res, err := child(o, name, "1", spans)
			note(err)
			if err == nil {
				sr.PerLayer = &res
				note(failedOps(name, res))
				if b, rerr := os.ReadFile(spans); rerr == nil {
					allSpans[name] = b
				}
			}
		}
	}
	if o.out != "" {
		doc := map[string]any{"seed": o.seed, "seconds": o.seconds, "workloads": results}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		if len(allSpans) > 0 {
			sb, err := json.Marshal(allSpans)
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.out+".spans.json", append(sb, '\n'), 0o644); err != nil {
				return err
			}
		}
	}
	return firstErr
}

func failedOps(name string, r Result) error {
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, r.Failed, r.Attempted)
	}
	return nil
}

// runSets runs o.sets untraced sets and prints, for every end-to-end metric of
// every workload, each set's value, the spread (largest minus smallest over
// the median) and whether it is inside the metric's bound.
func runSets(o options) error {
	values := map[string][]float64{}
	for s := 0; s < o.sets; s++ {
		for _, name := range workloadNames {
			fmt.Printf("== set %d of %d: %s\n", s+1, o.sets, name)
			res, err := child(o, name, "0", "")
			if err != nil {
				return err
			}
			if err := failedOps(name, res); err != nil {
				return err
			}
			for _, d := range endToEnd {
				key := name + " " + d.Name
				values[key] = append(values[key], res.Metrics[d.Name].Value)
			}
		}
	}
	fail := 0
	fmt.Printf("%-16s %-12s %8s %6s  %s\n", "workload", "metric", "spread", "bound", "values")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			vs := values[name+" "+d.Name]
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			spread := (s[len(s)-1] - s[0]) / quantile(s, 50)
			verdict := "PASS"
			if spread > d.Bound {
				verdict = "FAIL"
				fail++
			}
			fmt.Printf("%-16s %-12s %7.2f%% %5.0f%%  %s %.6g\n", name, d.Name, 100*spread, 100*d.Bound, verdict, vs)
		}
	}
	if fail > 0 {
		return errors.New(strconv.Itoa(fail) + " metric x workload pairs spread beyond their bound")
	}
	return nil
}
