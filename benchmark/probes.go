package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"anton2/internal/arbiter"
	"anton2/internal/ckpt"
	"anton2/internal/core"
	"anton2/internal/exp"
	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/trace"
	"anton2/internal/traffic"
	"anton2/internal/workload"
)

// layers gathers the per-layer metrics of a traced run. Every layer is
// measured from outside, by timing calls into its exported functions; each
// timed call is also a span. Every traced run measures every metric, whatever
// its workload, so the same table is available beside each workload's
// end-to-end numbers: the probes use fixed shapes and do not depend on the
// workload, except that a workload whose own traced unit already produced a
// probe's spans is not made to run them twice.
type layers struct {
	tr   *Tracer
	root int
	seed uint64
	tmp  string
	v    map[string]float64
}

// sink keeps the results of micro-loops alive so the compiler cannot drop
// the calls being timed.
var sink uint64

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func medianMS(spans []Span) float64 {
	var xs []float64
	for _, s := range spans {
		xs = append(xs, ms(s.dur()))
	}
	return median(xs)
}

func sums(spans []Span) (d time.Duration, n float64) {
	for _, s := range spans {
		d += s.dur()
		n += s.N
	}
	return d, n
}

// mbPerS is total span work, taken as bytes, over total span time.
func mbPerS(spans []Span) float64 {
	d, n := sums(spans)
	return n / 1e6 / d.Seconds()
}

// ---- cold analytic loads (must run before anything else fills the cache) ----

func (l *layers) loadcalcProbes() error {
	for _, c := range []struct {
		shape  topo.TorusShape
		metric string
		scale  float64
	}{
		{satShape, "loadcalc.compute_s_8x8x8_uniform", 1},
		{mdShape, "loadcalc.compute_ms_4x4x2_uniform", 1e3},
	} {
		var err error
		d := l.tr.Do(l.root, "core.PatternLoads", "cold-"+c.shape.String(), 0, func() {
			_, err = core.PatternLoads(machine.DefaultConfig(c.shape), traffic.Uniform{})
		})
		if err != nil {
			return err
		}
		l.v[c.metric] = d.Seconds() * c.scale
	}
	mc := machine.DefaultConfig(satShape)
	const hits = 20000
	d := l.tr.Do(l.root, "core.PatternLoads", "hit", hits, func() {
		for i := 0; i < hits; i++ {
			ld, _ := core.PatternLoads(mc, traffic.Uniform{})
			sink += uint64(ld.Sources)
		}
	})
	l.v["core.pattern_loads_hit_us"] = nsPer(d, hits) / 1e3
	loads, err := core.PatternLoads(mc, traffic.Uniform{})
	if err != nil {
		return err
	}
	var ws []float64
	for i := 0; i < 5; i++ {
		ws = append(ws, ms(l.tr.Do(l.root, "loadcalc.BuildWeights", "8x8x8", 0, func() { sink += uint64(len(loadcalc.BuildWeights(loads).SA1)) })))
	}
	l.v["loadcalc.build_weights_ms"] = median(ws)
	mc.Arbiter = arbiter.KindInverseWeighted
	var bs []float64
	for i := 0; i < 3; i++ {
		bs = append(bs, ms(l.tr.Do(l.root, "core.BuildMachine", "8x8x8-iw", 0, func() { _, _, err = core.BuildMachine(mc, traffic.Uniform{}) })))
		if err != nil {
			return err
		}
	}
	l.v["core.build_machine_ms"] = median(bs)
	return nil
}

// ---- sim -------------------------------------------------------------------

// rearm is a component that does nothing but schedule its own next tick.
type rearm struct {
	e     *sim.Engine
	id    int
	ahead uint64
}

func (r *rearm) Tick(now uint64) {
	if r.ahead > 0 {
		r.e.Wake(r.id, now+r.ahead)
	}
}

func simEngine(mode sim.Mode, comps int, ahead uint64) *sim.Engine {
	e := sim.NewEngineMode(mode)
	for i := 0; i < comps; i++ {
		r := &rearm{e: e, ahead: ahead}
		r.id = e.Register(r)
	}
	return e
}

func (l *layers) simProbes() {
	const comps, cycles = 1024, 4000
	e := simEngine(sim.ModeActive, comps, 1)
	l.v["sim.wake_tick_ns"] = nsPer(l.tr.Do(l.root, "sim.Engine.Run", "wake_tick", comps*cycles, func() { e.Run(cycles) }), comps*cycles)

	// 600 cycles ahead is past the 512-bucket wheel: every wake goes through
	// the overflow heap.
	const farAhead, farRounds = 600, 400
	e = simEngine(sim.ModeActive, comps, farAhead)
	l.v["sim.far_wake_ns"] = nsPer(l.tr.Do(l.root, "sim.Engine.Run", "far_wake", comps*farRounds, func() { e.Run(farAhead * farRounds) }), comps*farRounds)

	// Components that never re-arm: after their registration tick nothing is
	// awake, and each Run call is one scan for the next wake plus a jump.
	const jumps = 200000
	e = simEngine(sim.ModeActive, comps, 0)
	e.Run(1)
	l.v["sim.idle_jump_ns"] = nsPer(l.tr.Do(l.root, "sim.Engine.Run", "idle_jump", jumps, func() {
		for i := 0; i < jumps; i++ {
			e.Run(1000)
		}
	}), jumps)

	e = simEngine(sim.ModeScan, comps, 0)
	l.v["sim.scan_tick_ns"] = nsPer(l.tr.Do(l.root, "sim.Engine.Run", "scan_tick", comps*cycles, func() { e.Run(cycles) }), comps*cycles)
}

// ---- machine: saturated and sparse kernels ----------------------------------

type burst struct {
	cycles, packets, flits uint64
	wall                   time.Duration
	allocMB, mallocs       float64
}

// satBurst is core.RunKernel's saturated workload (same RNG streams, so the
// same cycle count as BENCH_7.json) with the machine kept in hand: it times
// RunUntilDelivered only, and reads torus flits and allocation deltas.
func (l *layers) satBurst(op string, mutate func(*machine.Config)) (burst, error) {
	mc := machine.DefaultConfig(satShape)
	mutate(&mc)
	var m *machine.Machine
	var err error
	l.tr.Do(l.root, "machine.New", satShape.String(), 0, func() { m, err = machine.New(mc) })
	if err != nil {
		return burst{}, err
	}
	tm := m.Topo
	cores := tm.Chip.CoreEndpoints()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var b burst
	for n := 0; n < tm.NumNodes(); n++ {
		for _, ep := range cores {
			src := topo.NodeEp{Node: n, Ep: ep}
			rng := sim.NewRNG(mc.Seed, fmt.Sprintf("kernel-sat-%d-%d", n, ep))
			for j := 0; j < satBatch; j++ {
				dst := src
				for dst == src {
					dst = topo.NodeEp{Node: rng.Intn(tm.NumNodes()), Ep: cores[rng.Intn(len(cores))]}
				}
				m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
				b.packets++
			}
		}
	}
	b.wall = l.tr.Do(l.root, "machine.RunUntilDelivered", "sat-"+op, float64(b.packets), func() {
		b.cycles, err = m.RunUntilDelivered(b.packets, 8_000_000)
	})
	if err != nil {
		return b, err
	}
	runtime.ReadMemStats(&after)
	b.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	b.mallocs = float64(after.Mallocs - before.Mallocs)
	for _, f := range m.SnapshotTorusFlits() {
		b.flits += f
	}
	return b, nil
}

func (l *layers) satProbes() error {
	active, err := l.satBurst("active", func(*machine.Config) {})
	if err != nil {
		return err
	}
	scan, err := l.satBurst("scan", func(c *machine.Config) { c.Engine = machine.EngineScan })
	if err != nil {
		return err
	}
	sharded, err := l.satBurst("sharded2", func(c *machine.Config) { c.Shards = 2 })
	if err != nil {
		return err
	}
	if scan.cycles != active.cycles || sharded.cycles != active.cycles {
		return fmt.Errorf("saturated burst: engines disagree on cycles: active %d scan %d sharded2 %d", active.cycles, scan.cycles, sharded.cycles)
	}
	l.v["machine.sat_cycles"] = float64(active.cycles)
	l.v["machine.sat_cycles_per_s"] = float64(active.cycles) / active.wall.Seconds()
	l.v["machine.sat_ns_per_torus_flit"] = float64(active.wall.Nanoseconds()) / float64(active.flits)
	l.v["machine.sat_active_over_scan"] = scan.wall.Seconds() / active.wall.Seconds()
	l.v["machine.sat_sharded2_over_active"] = active.wall.Seconds() / sharded.wall.Seconds()
	l.v["machine.alloc_mb_per_sat_run"] = active.allocMB
	l.v["machine.allocs_per_packet"] = active.mallocs / float64(active.packets)
	l.v["machine.new_ms_8x8x8"] = medianMS(l.tr.Select("machine.New", satShape.String()))

	// Inverse-weighted against round-robin arbiters on the same burst, at
	// 4x4x4 so that every traced run can afford the pair.
	shape := topo.Shape3(4, 4, 4)
	mc := machine.DefaultConfig(shape)
	mc.Seed = l.seed
	rr := core.ThroughputConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: 16}
	iw := rr
	iw.Machine.Arbiter = arbiter.KindInverseWeighted
	iw.WeightPatterns = []traffic.Pattern{traffic.Uniform{}}
	for _, c := range []struct {
		op  string
		cfg core.ThroughputConfig
	}{{"rr-4x4x4", rr}, {"iw-4x4x4", iw}} {
		if _, err := reenactThroughput(l.tr, l.root, c.op, c.cfg); err != nil {
			return err
		}
	}
	dIW, _ := sums(l.tr.Select("machine.RunUntilDelivered", "iw-4x4x4"))
	dRR, _ := sums(l.tr.Select("machine.RunUntilDelivered", "rr-4x4x4"))
	l.v["machine.iw_over_rr_wall"] = dIW.Seconds() / dRR.Seconds()
	return nil
}

func (l *layers) sparseProbes() error {
	kernel := func(shape topo.TorusShape, engine string) (core.KernelResult, error) {
		mc := machine.DefaultConfig(shape)
		mc.Engine = engine
		r, err := core.RunKernel(core.KernelConfig{Machine: mc, Workload: core.KernelSparse})
		if err == nil {
			l.tr.Add(l.root, "core.RunKernel", "sparse-"+shape.String()+"-"+engine, time.Duration(r.WallSec*1e9), float64(r.Cycles))
		}
		return r, err
	}
	big, err := kernel(satShape, machine.EngineActive)
	if err != nil {
		return err
	}
	l.v["machine.sparse_cycles_per_s"] = big.CyclesPerSec
	small := topo.Shape3(8, 4, 2)
	act, err := kernel(small, machine.EngineActive)
	if err != nil {
		return err
	}
	scn, err := kernel(small, machine.EngineScan)
	if err != nil {
		return err
	}
	l.v["machine.sparse_active_over_scan_8x4x2"] = act.CyclesPerSec / scn.CyclesPerSec

	var news []float64
	var m *machine.Machine
	for i := 0; i < 5; i++ {
		news = append(news, ms(l.tr.Do(l.root, "machine.New", mdShape.String(), 0, func() { m, err = machine.New(machine.DefaultConfig(mdShape)) })))
		if err != nil {
			return err
		}
	}
	l.v["machine.new_ms_4x4x2"] = median(news)

	const packets = 200000
	rng := rand.New(rand.NewSource(int64(l.seed)))
	cores := m.Topo.Chip.CoreEndpoints()
	src := topo.NodeEp{Node: 0, Ep: cores[0]}
	dst := topo.NodeEp{Node: m.Topo.NumNodes() - 1, Ep: cores[len(cores)-1]}
	l.v["machine.make_packet_ns"] = nsPer(l.tr.Do(l.root, "machine.MakeRandomPacket", "", packets, func() {
		for i := 0; i < packets; i++ {
			sink += m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng).ID
		}
	}), packets)
	return nil
}

// ---- machine snapshot, ckpt, hooks -------------------------------------------

// ckptProbes derives the snapshot-path metrics from the spans of one
// re-enacted md_ckpt unit (run here unless the workload's own traced unit
// already was one), then decodes and restores its last checkpoint.
func (l *layers) ckptProbes() error {
	cfg, rc := ckptConfig(l.seed, l.tmp)
	if len(l.tr.Select("ckpt.AtomicWriteFile", "")) == 0 {
		if _, err := reenactMDStep(l.tr, l.root, cfg, rc); err != nil {
			return err
		}
	}
	l.v["machine.snapshot_ms"] = medianMS(l.tr.Select("machine.Snapshot", ""))
	var jsonMB, encBytes []float64
	for _, s := range l.tr.Select("json.Marshal", "snapshot") {
		jsonMB = append(jsonMB, s.N/1e6)
	}
	for _, s := range l.tr.Select("ckpt.Encode", "") {
		encBytes = append(encBytes, s.N)
	}
	l.v["machine.snapshot_json_mb"] = median(jsonMB)
	l.v["ckpt.encode_mb_per_s"] = mbPerS(l.tr.Select("ckpt.Encode", ""))
	l.v["ckpt.atomic_write_ms"] = medianMS(l.tr.Select("ckpt.AtomicWriteFile", ""))
	l.v["ckpt.bytes"] = median(encBytes)
	l.v["ckpt.writes_per_run"] = float64(len(encBytes))

	// One more snapshot, taken mid-run, to decode and restore from.
	mc := cfg.Machine
	spec := cfg.Workload.WithDefaults()
	mc.Multicast = spec.Tables(topo.MustMachine(mc.Shape))
	m, _, err := core.BuildMachine(mc)
	if err != nil {
		return err
	}
	var enc []byte
	_, err = workload.RunResumable(m, spec, 0, nil, 4000, func(p workload.Progress) {
		if enc != nil {
			return
		}
		snap, serr := m.Snapshot()
		if serr != nil {
			return
		}
		mb, _ := json.Marshal(snap)
		db, _ := json.Marshal(p)
		enc, _ = ckpt.New("probe", snap.Now).Add("machine", mb).Add("driver", db).Encode()
	})
	if err != nil || enc == nil {
		return fmt.Errorf("snapshot for restore probe: enc=%d bytes, err=%v", len(enc), err)
	}
	var c *ckpt.Checkpoint
	for i := 0; i < 5 && err == nil; i++ {
		id := l.tr.Begin(l.root, "ckpt.Decode", "")
		c, err = ckpt.Decode(enc)
		l.tr.End(id, float64(len(enc)))
	}
	if err != nil {
		return err
	}
	l.v["ckpt.decode_mb_per_s"] = mbPerS(l.tr.Select("ckpt.Decode", ""))
	mb, _ := c.Section("machine")
	var snap machine.Snapshot
	if err := json.Unmarshal(mb, &snap); err != nil {
		return err
	}
	var rs []float64
	for i := 0; i < 3; i++ {
		fresh, _, err := core.BuildMachine(mc)
		if err != nil {
			return err
		}
		rs = append(rs, ms(l.tr.Do(l.root, "machine.Restore", "", 0, func() { err = fresh.Restore(&snap) })))
		if err != nil {
			return err
		}
	}
	l.v["machine.restore_ms"] = median(rs)
	return nil
}

// hookProbes prices the two observer hooks no workload turns on, and the
// checkpoint-on over checkpoint-off wall ratio of the md_ckpt unit.
func (l *layers) hookProbes() error {
	point := func(op string, mutate func(*machine.Config)) (time.Duration, error) {
		cfg := mdConfig(l.seed, route.AntonScheme{}, 2)
		mutate(&cfg.Machine)
		var err error
		best := time.Duration(0)
		for i := 0; i < 3 && err == nil; i++ {
			d := l.tr.Do(l.root, "core.RunMDStepPoint", op, 0, func() { _, err = core.RunMDStepPoint(cfg) })
			if best == 0 || d < best {
				best = d
			}
		}
		return best, err
	}
	plain, err := point("plain", func(*machine.Config) {})
	if err != nil {
		return err
	}
	checked, err := point("check", func(c *machine.Config) { c.Check = true })
	if err != nil {
		return err
	}
	tel, err := point("telemetry", func(c *machine.Config) { c.Telemetry = &telemetry.Options{} })
	if err != nil {
		return err
	}
	l.v["machine.check_overhead_ratio"] = checked.Seconds() / plain.Seconds()
	l.v["machine.telemetry_overhead_ratio"] = tel.Seconds() / plain.Seconds()
	if _, done := l.v["ckpt.wall_ratio"]; !done {
		u, err := ckptRun(l.seed, 0, l.tmp)
		if err != nil {
			return err
		}
		l.tr.Add(l.root, "core.RunMDStepPointCkpt", "on", u.wall, 0)
		l.tr.Add(l.root, "core.RunMDStepPoint", "off", u.off, 0)
		l.v["ckpt.wall_ratio"] = u.wall.Seconds() / u.off.Seconds()
	}
	return nil
}

// ---- workload, route, arbiter, traffic, trace -------------------------------

func (l *layers) workloadProbes() error {
	if len(l.tr.Select("workload.Run", "anton")) == 0 {
		if _, err := reenactMDStep(l.tr, l.root, mdConfig(l.seed, route.AntonScheme{}, mdTimesteps), ckpt.RunConfig{}); err != nil {
			return err
		}
	}
	l.v["workload.run_ms"] = medianMS(l.tr.Select("workload.Run", "anton"))
	l.v["workload.tables_ms"] = medianMS(l.tr.Select("workload.Spec.Tables", "anton"))

	_, capture, err := core.RunMDStepPointRecorded(mdConfig(l.seed, route.AntonScheme{}, mdTimesteps), true)
	if err != nil {
		return err
	}
	var enc []byte
	for i := 0; i < 5 && err == nil; i++ {
		id := l.tr.Begin(l.root, "trace.Encode", "")
		enc, err = capture.Encode()
		l.tr.End(id, float64(len(enc)))
	}
	for i := 0; i < 5 && err == nil; i++ {
		id := l.tr.Begin(l.root, "trace.Decode", "")
		_, err = trace.Decode(enc)
		l.tr.End(id, float64(len(enc)))
	}
	if err != nil {
		return err
	}
	l.v["trace.encode_mb_per_s"] = mbPerS(l.tr.Select("trace.Encode", ""))
	l.v["trace.decode_mb_per_s"] = mbPerS(l.tr.Select("trace.Decode", ""))
	l.v["trace.events"] = float64(len(capture.Events))
	return nil
}

func (l *layers) microProbes() {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(int64(l.seed)))
	l.v["route.random_choices_ns"] = nsPer(l.tr.Do(l.root, "route.RandomChoices", "", n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(route.RandomChoices(rng).Slice)
		}
	}), n)

	tm := topo.MustMachine(satShape)
	cores := tm.Chip.CoreEndpoints()
	type triple struct {
		src, dst topo.NodeEp
		c        route.Choices
	}
	triples := make([]triple, 4096)
	for i := range triples {
		triples[i] = triple{
			src: topo.NodeEp{Node: rng.Intn(tm.NumNodes()), Ep: cores[rng.Intn(len(cores))]},
			dst: topo.NodeEp{Node: rng.Intn(tm.NumNodes()), Ep: cores[rng.Intn(len(cores))]},
			c:   route.RandomChoices(rng),
		}
	}
	for _, name := range []string{"anton", "vcless"} {
		strat, _ := route.StrategyByName(name)
		cfg := route.NewConfig(tm)
		cfg.Scheme = strat
		l.v["route.choose_ns."+name] = nsPer(l.tr.Do(l.root, "route.Strategy.Choose", name, n, func() {
			for i := 0; i < n; i++ {
				t := &triples[i&4095]
				sink += uint64(strat.Choose(cfg, t.src, t.dst, t.c, route.ClassRequest).Slice)
			}
		}), n)
	}

	const k = 6 // router port count
	rr := arbiter.NewRoundRobin(k)
	l.v["arbiter.rr_pick_ns"] = nsPer(l.tr.Do(l.root, "arbiter.Pick", "rr", n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(rr.Pick(uint64(i)&(1<<k-1)|1, nil))
		}
	}), n)
	iw := arbiter.NewInverseWeighted(k, arbiter.UniformWeights(k))
	pats := make([]uint8, k)
	l.v["arbiter.iw_pick_ns"] = nsPer(l.tr.Do(l.root, "arbiter.Pick", "iw", n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(iw.Pick(uint64(i)&(1<<k-1)|1, pats))
		}
	}), n)

	src := topo.NodeEp{Node: 0, Ep: cores[0]}
	l.v["traffic.uniform_dest_ns"] = nsPer(l.tr.Do(l.root, "traffic.Uniform.Dest", "", n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(traffic.Uniform{}.Dest(tm, src, rng).Node)
		}
	}), n)
}

// ---- exp ---------------------------------------------------------------------

func (l *layers) expProbes() error {
	const jobsN = 10000
	jobs := make([]exp.Job, jobsN)
	for i := range jobs {
		i := i
		jobs[i] = exp.Job{Spec: exp.NewSpec("noop").Add("i", i), Run: func(uint64) (any, error) { return i, nil }}
	}
	l.v["exp.pool_us_per_job"] = nsPer(l.tr.Do(l.root, "exp.Run", "noop-serial", jobsN, func() { sink += uint64(len(exp.Run(jobs, exp.Serial()))) }), jobsN) / 1e3

	spec := core.MDStepSpec(mdConfig(l.seed, route.AntonScheme{}, mdTimesteps))
	const hashes = 200000
	l.v["exp.spec_hash_ns"] = nsPer(l.tr.Do(l.root, "exp.Spec.Hash", "", hashes, func() {
		for i := 0; i < hashes; i++ {
			sink += spec.Hash()
		}
	}), hashes)

	// The md_timestep unit as an exp sweep, serial and on two workers.
	base := machine.DefaultConfig(mdShape)
	mdJobs := func() []exp.Job { return core.MDStepJobs(base, workload.Spec{Timesteps: mdTimesteps}, 0) }
	var serial, par []exp.Result
	dSerial := l.tr.Do(l.root, "exp.Run", "mdstep-serial", 0, func() { serial = exp.Run(mdJobs(), exp.Serial()) })
	dPar := l.tr.Do(l.root, "exp.Run", "mdstep-parallel2", 0, func() { par = exp.Run(mdJobs(), exp.Parallel(2)) })
	if err := exp.FirstErr(append(serial, par...)); err != nil {
		return err
	}
	l.v["exp.parallel2_speedup"] = dSerial.Seconds() / dPar.Seconds()

	var mcs, wjs []float64
	for i := 0; i < 20; i++ {
		var err error
		mcs = append(mcs, us(l.tr.Do(l.root, "exp.MarshalCanonical", "", 0, func() { _, err = exp.MarshalCanonical(serial) })))
		if err != nil {
			return err
		}
	}
	for i := 0; i < 8; i++ {
		var err error
		wjs = append(wjs, ms(l.tr.Do(l.root, "exp.WriteJSON", "", 0, func() { _, err = exp.WriteJSON(filepath.Join(l.tmp, "artifacts"), "probe", serial) })))
		if err != nil {
			return err
		}
	}
	l.v["exp.marshal_canonical_us"] = median(mcs)
	l.v["exp.write_json_ms"] = median(wjs)
	return nil
}

// ---- serve -------------------------------------------------------------------

// serveLayer turns one pass's samples and counters into the serve metrics.
func (l *layers) serveLayer(o *serveOutcome, dir string) error {
	scratch, err := serveTemp(l.tmp, "scratch-store")
	if err != nil {
		return err
	}
	if err := serveProbes(l.tr, l.root, o, dir, scratch); err != nil {
		return err
	}
	perCall := func(name string) float64 {
		d, n := sums(l.tr.Select(name, "probe"))
		return float64(d.Nanoseconds()) / n / 1e3
	}
	l.v["serve.parse_us"] = perCall("serve.ParseRequest")
	l.v["serve.id_us"] = perCall("serve.Request.ID")
	loads := l.tr.Select("serve.Store.LoadArtifact", "probe")
	dLoad, _ := sums(loads)
	l.v["serve.store_load_us"] = us(dLoad) / float64(4*len(o.ids))
	l.v["serve.store_load_mb_per_s"] = mbPerS(loads)
	l.v["serve.store_save_us"] = medianMS(l.tr.Select("serve.Store.SaveArtifact", "probe")) * 1e3
	l.v["serve.wal_save_us"] = medianMS(l.tr.Select("serve.Store.SaveWAL", "probe")) * 1e3
	l.v["serve.new_server_ms"] = median(o.newServerMS)

	cold, warm, disk := summarize(o.coldUS), summarize(o.warmUS), summarize(o.diskUS)
	l.v["serve.cold_req_p50_ms"] = cold.P50 / 1e3
	l.v["serve.cold_runs_per_s"] = float64(len(o.coldUS)) / o.coldElapsed.Seconds()
	l.v["serve.warm_req_p50_us"] = warm.P50
	l.v["serve.warm_req_p99_us"] = quantile(sorted(o.warmUS), 99)
	l.v["serve.disk_req_p50_us"] = disk.P50
	l.v["serve.disk_req_p90_us"] = quantile(sorted(o.diskUS), 90)
	l.v["serve.hits_flight"] = o.counters[`anton2serve_cache_hits_total{tier="flight"}`]
	l.v["serve.hits_memory"] = o.counters[`anton2serve_cache_hits_total{tier="memory"}`]
	l.v["serve.hits_disk"] = o.counters[`anton2serve_cache_hits_total{tier="disk"}`]
	l.v["serve.misses"] = o.counters["anton2serve_cache_misses_total"]
	hits := l.v["serve.hits_flight"] + l.v["serve.hits_memory"] + l.v["serve.hits_disk"]
	l.v["serve.hit_rate"] = hits / (hits + l.v["serve.misses"])
	l.v["serve.sim_cycles_total"] = o.counters["anton2serve_sim_cycles_total"]
	var selfs []float64
	for _, id := range o.coldSpan {
		if l.tr.HasChildren(id) {
			selfs = append(selfs, ms(l.tr.SelfTime(id)))
		}
	}
	l.v["serve.cold_self_ms"] = median(selfs)
	fmt.Printf("  serve cold %s us\n  serve warm %s us\n  serve disk %s us\n", cold, warm, disk)
	return nil
}

// rest runs every probe group except the cold analytic loads, which ran first.
// serveDone says the workload's own pass already produced the serve metrics.
func (l *layers) rest(serveDone bool) error {
	l.simProbes()
	l.microProbes()
	for _, f := range []func() error{l.satProbes, l.sparseProbes, l.ckptProbes, l.hookProbes, l.workloadProbes, l.expProbes} {
		if err := f(); err != nil {
			return err
		}
	}
	if serveDone {
		return nil
	}
	dir, err := serveTemp(l.tmp, "probe-store")
	if err != nil {
		return err
	}
	o, err := runServe(serveConfig{reqs: probeRequests(), seed: l.seed, warmN: 10000, restarts: 2, dir: dir, tr: l.tr, parent: l.root})
	if err != nil {
		return err
	}
	if o.failed > 0 {
		return fmt.Errorf("serve probe: %d of %d submissions failed", o.failed, o.attempted)
	}
	return l.serveLayer(o, dir)
}
