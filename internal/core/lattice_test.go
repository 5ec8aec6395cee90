package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"testing"

	"anton2/internal/arbiter"
	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/workload"
)

// This file is core's one identity test, the mode lattice (DESIGN §9.3). A
// generator walks the mode axes below and crosses them with one small panel
// per registered family and fault variant; faults enter only through a
// family's own axes. A cell that a refusal rule names is refused with that
// *machine.ConfigError; every other cell's canonical artifact is the scan /
// serial / unobserved / uncheckpointed reference's for the same spec, byte
// for byte. -short runs an all-pairs covering array of the mode axes under
// every panel; the default run an all-triples one, plus paper-scale panels
// on which the sharded engine reaches sim.parallelMinReady on its own.

// The mode axes, in row order; a row holds one value index per axis.
const (
	axStrategy = iota // route.Strategies(), in name order
	axEngine          // engineValues
	axShards          // shardValues
	axCheck           // off, on: the invariant suite
	axTel             // off, on: a telemetry collector with an in-memory Sink
	axBeat            // off, on: the Progress heartbeat
	axCkpt            // off, kill-and-resume
	axPool            // 1, 2 exp workers
	numAxes
)

var (
	engineValues = []string{machine.EngineScan, machine.EngineActive, "warp"}
	shardValues  = []int{1, 2, 4, 0, -1} // 0 is auto
)

type row [numAxes]int

func axisSizes() row { return row{len(route.Strategies()), 3, 5, 2, 2, 2, 2, 2} }

// The small panels' shapes — two-node rings in two dimensions, or in three
// for routecompare, mdstep and a permanent outage — and the paper-scale one.
var flatShape, tinyShape, paperShape = topo.Shape3(2, 2, 1), topo.Shape3(2, 2, 2), topo.Shape3(8, 4, 2)

// latticePanelAxes are the panels: one per family and fault variant, tiny so
// that a cell runs in milliseconds, then the paper-scale panels (64 nodes;
// 32 for the ping-pong sweep, which is long under the scan engine), which
// the default run crosses with the old matrices' engine columns only. The
// invalid base fault spec is Validate's Fault rule.
var latticePanelAxes = []struct {
	label, family, fault string
	paper                bool
	axes                 Axes
}{
	{label: "throughput", family: "throughput", axes: Axes{Shape: flatShape, Batches: []int{4, 8}}},
	// Tornado and reverse tornado coincide on a 2-ring; X needs radix 4.
	{label: "blend", family: "blend", axes: Axes{Shape: topo.Shape3(4, 1, 1), Weights: WeightsBoth, Fractions: []float64{0, 0.5}, Batch: 8}},
	{label: "latency", family: "latency", axes: Axes{Shape: flatShape}},
	// The single-node loop machine: sharding clamps to its one node.
	{label: "energy", family: "energy", axes: Axes{Payload: PayloadRandom, Flits: 40}},
	{label: "faultsweep,fault=transient", family: "faultsweep", fault: "transient",
		axes: Axes{Shape: flatShape, Rates: []float64{0, 0.02}, Batch: 8, Fault: fault.Spec{StallRate: 0.001, CreditLossRate: 0.01}}},
	{label: "faultsweep,fault=faillinks", family: "faultsweep", fault: "faillinks",
		axes: Axes{Shape: tinyShape, Rates: []float64{0.02}, Batch: 8, Fault: fault.Spec{FailLinks: 1}}},
	{label: "faultsweep,fault=invalid", family: "faultsweep", fault: "invalid",
		axes: Axes{Shape: tinyShape, Rates: []float64{0}, Batch: 8, Fault: fault.Spec{StallRate: 2}}},
	{label: "routecompare,fault=healthy", family: "routecompare", fault: "healthy", axes: Axes{Shape: tinyShape, Batch: 4, FailLinks: []int{0}}},
	{label: "routecompare,fault=faillinks", family: "routecompare", fault: "faillinks", axes: Axes{Shape: tinyShape, Batch: 4, FailLinks: []int{1}}},
	// Each phase ends when the fabric quiesces: every cell must agree on
	// every quiescence cycle.
	{label: "mdstep", family: "mdstep", axes: Axes{Shape: tinyShape,
		Workload: workload.Spec{HaloPackets: 4, HaloBurst: 2, Multicasts: 1, ReducePackets: 1, Timesteps: 1}}},

	{label: "throughput,paper", family: "throughput", paper: true, axes: Axes{Shape: paperShape, Batches: []int{8}}},
	{label: "throughput,paper,nhop2", family: "throughput", paper: true, axes: Axes{Shape: paperShape, Pattern: traffic.NHop{N: 2}, Batches: []int{8}}},
	{label: "blend,paper", family: "blend", paper: true, axes: Axes{Shape: paperShape, Weights: WeightsBoth, Fractions: []float64{0, 0.5}, Batch: 8}},
	{label: "latency,paper", family: "latency", paper: true, axes: Axes{Shape: topo.Shape3(4, 4, 2)}},
	{label: "energy,paper", family: "energy", paper: true, axes: Axes{Payload: PayloadRandom, Flits: 200}},
	{label: "faultsweep,paper", family: "faultsweep", fault: "transient", paper: true,
		axes: Axes{Shape: paperShape, Rates: []float64{0, 0.02}, Batch: 8, Fault: fault.Spec{StallRate: 0.001, CreditLossRate: 0.01}}},
}

// latticeRefusedAxes are panels each family's Check refuses, naming the axis.
var latticeRefusedAxes = []struct {
	family, axis string
	axes         Axes
}{
	{"throughput", "batches", Axes{Shape: tinyShape}},
	{"blend", "fractions", Axes{Shape: tinyShape, Fractions: []float64{1.5}, Batch: 8}},
	{"latency", "shape", Axes{Shape: topo.Shape3(1, 1, 1)}},
	{"energy", "flits", Axes{Flits: -1}},
	{"faultsweep", "rates", Axes{Shape: tinyShape, Batch: 8}},
	{"routecompare", "faillinks", Axes{Shape: tinyShape, Batch: 4, FailLinks: []int{-1}}},
	{"mdstep", "timesteps", Axes{Shape: tinyShape, Workload: workload.Spec{Timesteps: -1}}},
}

type latticePanel struct {
	label, fault string
	family       *Family
	paper        bool
	axes         Axes // accepted by the family's Check
	sweeps       bool // the family sweeps the strategy registry itself
	checkpoints  bool // its jobs carry RunCkpt
	rows         []row
}

// jobs expands the panel under one strategy, every machine config through
// mutate last. A family without a strategy axis gets it through its hook.
func (p *latticePanel) jobs(s route.Strategy, mutate func(*machine.Config)) []exp.Job {
	a := p.axes
	if p.sweeps {
		a.Strategies = []route.Strategy{s}
	}
	return p.family.Jobs(a, func(mc *machine.Config) {
		if !p.sweeps {
			mc.Scheme = s
		}
		mutate(mc)
	})
}

type cell struct {
	p *latticePanel
	r row
}

func (c cell) strategy() route.Strategy { return route.Strategies()[c.r[axStrategy]] }
func (c cell) engine() string           { return engineValues[c.r[axEngine]] }
func (c cell) shards() int              { return shardValues[c.r[axShards]] }
func (c cell) on(axis int) bool         { return c.r[axis] == 1 }
func (c cell) pool() int                { return 1 + c.r[axPool] }

// resumes reports whether the cell is killed and resumed: it checkpoints,
// and its family's jobs can.
func (c cell) resumes() bool { return c.on(axCkpt) && c.p.checkpoints }

// alone reports whether the cell runs while no other cell does: a kill probe
// is armed by seed, which every cell of a (panel, strategy) shares, and an
// auto cell lifts probeSeam's forced alternation for every machine built
// while it runs (ownChoice), so that its own stay on the engine's own choice.
func (c cell) alone() bool { return c.resumes() || c.shards() == 0 }

// name carries every axis token, so that -run can pick cells.
func (c cell) name() string {
	tok := func(axis int, off, on string) string { return []string{off, on}[c.r[axis]] }
	shards := fmt.Sprint(c.shards())
	if c.shards() == 0 {
		shards = "auto"
	}
	return fmt.Sprintf("%s,%s,engine=%s,shards=%s,check=%s,tel=%s,beat=%s,ckpt=%s,pool=%d", c.p.label, c.strategy().Name(), c.engine(),
		shards, tok(axCheck, "off", "on"), tok(axTel, "off", "on"), tok(axBeat, "off", "on"), tok(axCkpt, "off", "resume"), c.pool())
}

// refusalRules are DESIGN §9.3's refusals over the lattice in the order
// Validate applies them. The first that applies names the field the cell is
// refused for. EndpointPipeline = 0 is no axis: nothing sets it.
var refusalRules = []struct {
	field, condition string
	applies          func(c cell) bool
}{
	{"Engine", "unknown engine", func(c cell) bool { return c.engine() == "warp" }},
	{"Shards", "negative shard count", func(c cell) bool { return c.shards() < 0 }},
	{"Engine", "explicit shards on the scan engine", func(c cell) bool { return c.shards() > 1 && c.engine() == machine.EngineScan }},
	{"Fault", "invalid fault spec", func(c cell) bool { return c.p.fault == "invalid" }},
}

// refusal returns the index of the rule that refuses c, or -1.
func (c cell) refusal() int {
	for i, rule := range refusalRules {
		if rule.applies(c) {
			return i
		}
	}
	return -1
}

// fieldOf is the Config field a refusal names: "" for nil.
func fieldOf(err error) string {
	var ce *machine.ConfigError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &ce):
		return ce.Field
	}
	return fmt.Sprintf("(not a *machine.ConfigError: %v)", err)
}

// A latticeID is a test id of a hand-picked matrix the lattice replaced,
// kept in the default run as a named cell of it: its row under every panel
// in accepts. TestConfigLattice runs every other cell.
type latticeID struct {
	path string
	in   func(*latticePanel) bool
	row  row
}

// latticeIDs lists the ids: the resume matrix, the checked routecompare
// runs, and the strategy and engine differentials, in the engine columns
// those matrices named.
func latticeIDs(panels []*latticePanel) []latticeID {
	columns := map[string][2]int{"scan": {0, 0}, "active": {1, 0}, "sharded": {1, 1}, "sharded4": {1, 2}, "auto": {1, 3}}
	strategy := map[string]int{}
	for i, name := range route.StrategyNames() {
		strategy[name] = i
	}
	strategy[""] = strategy["anton"] // where a matrix ran any one
	var ids []latticeID
	add := func(path string, in func(*latticePanel) bool, name, col string, check, ckpt int) {
		ids = append(ids, latticeID{path, in, row{strategy[name], columns[col][0], columns[col][1], check, 0, 0, ckpt, 0}})
	}
	panel := func(family, fault string, paper bool) func(*latticePanel) bool {
		return func(p *latticePanel) bool { return p.family.Name == family && p.fault == fault && p.paper == paper }
	}
	for _, m := range []struct{ path, family, fault, strategy string }{
		{"fig9/*", "throughput", "", "*"}, {"mdstep/*", "mdstep", "", "*"}, {"fig10", "blend", "", ""},
		{"faultsweep/transient", "faultsweep", "transient", ""}, {"faultsweep/faillinks", "faultsweep", "faillinks", ""},
		{"routecompare/healthy", "routecompare", "healthy", ""}, {"routecompare/angara-faillinks", "routecompare", "faillinks", "angara"},
	} {
		names := []string{m.strategy}
		if m.strategy == "*" {
			names = route.StrategyNames()
		}
		for _, name := range names {
			for _, col := range []string{"scan", "active", "sharded"} {
				path := "TestCkptResumeEngineStrategyMatrix/" + strings.Replace(m.path, "*", name, 1) + "/" + col
				add(path, panel(m.family, m.fault, false), name, col, 0, 1)
			}
		}
	}
	for _, name := range route.StrategyNames() {
		add("TestStrategyCheckedRuns/"+name+"/healthy", panel("routecompare", "healthy", false), name, "active", 1, 0)
		add("TestStrategyCheckedRuns/"+name+"/faillinks=1", panel("routecompare", "faillinks", false), name, "sharded", 1, 0)
	}
	entries := map[string]string{"throughput": "Throughput", "blend": "Blend", "latency": "Latency", "energy": "Energy",
		"faultsweep": "FaultSweep", "routecompare": "RouteCompare", "mdstep": "MDStep"}
	for _, p := range panels {
		f, entry := p.family.Name, entries[p.family.Name]
		if entry == "" || p.fault == "invalid" {
			continue
		}
		in := func(q *latticePanel) bool { return q == p }
		for _, col := range []string{"active", "auto", "sharded4"} {
			check := 1 // the sharded columns ran checked
			if col == "active" {
				check = 0
			}
			switch {
			case p.paper:
				add("TestEngineDiff"+entry+"/"+f+"/"+col, in, "anton", col, check, 0)
			case p.sweeps:
				add("TestStrategyDiff"+entry+"/"+f+"/"+col, in, "", col, check, 0)
			default:
				for _, name := range route.StrategyNames() {
					add(fmt.Sprintf("TestStrategyDiff%s/%s/%s-%s/%s", entry, name, f, name, col), in, name, col, check, 0)
				}
			}
		}
	}
	return ids
}

// allRows enumerates the full product of the axes in lexicographic order.
func allRows() []row {
	sizes, rows, r := axisSizes(), []row{}, row{}
	for {
		rows = append(rows, r)
		a := numAxes - 1
		for ; a >= 0; a-- {
			if r[a]++; r[a] < sizes[a] {
				break
			}
			r[a] = 0
		}
		if a < 0 {
			return rows
		}
	}
}

// tupleKeys numbers every t-subset of r's axis values: the subset's axis
// mask, then its values (each below 8).
func tupleKeys(r row, t int) []int {
	var keys []int
	for mask := range 1 << numAxes {
		if bits.OnesCount(uint(mask)) == t {
			k := mask
			for a := range numAxes {
				if mask&(1<<a) != 0 {
					k = k<<3 | r[a]
				}
			}
			keys = append(keys, k)
		}
	}
	return keys
}

// coveringRows returns the seeds, then, while some t-tuple of axis values
// that a cell builds can hold is in no built row yet, the built row that
// holds the most such tuples; then the same for the tuples only refused
// cells hold, over every row. Ties go to the first row in lexicographic
// order, so the rows are the same on every run.
func coveringRows(seeds []row, t int, builds func(row) bool) []row {
	all := allRows()
	keys := make([][]int, len(all))
	for j, r := range all {
		keys[j] = tupleKeys(r, t)
	}
	held := make([]bool, 1<<(numAxes+3*t))
	var rows []row
	hold := func(r row) {
		rows = append(rows, r)
		for _, k := range tupleKeys(r, t) {
			held[k] = true
		}
	}
	for _, r := range seeds {
		hold(r)
	}
	for _, builtOnly := range []bool{true, false} {
		for {
			best, gain := -1, 0
			for j, r := range all {
				g := 0
				for _, k := range keys[j] {
					if !held[k] {
						g++
					}
				}
				if g > gain && (!builtOnly || builds(r)) {
					best, gain = j, g
				}
			}
			if best < 0 {
				break
			}
			hold(all[best])
		}
	}
	return rows
}

// latticeSet is the generated lattice: its panels with their rows, and every
// cell by the top-level test it runs under, with its path below that.
type latticeSet struct {
	panels []*latticePanel
	placed map[string][]placedCell
}

type placedCell struct {
	path []string
	c    cell
}

var (
	latticeOnce sync.Once
	theLattice  *latticeSet
	latticeErr  error
)

// lattice generates this run's lattice once: all pairs under -short, all
// triples with the paper panels and the ids otherwise.
func lattice(t *testing.T) *latticeSet {
	latticeOnce.Do(func() { theLattice, latticeErr = generateLattice(testing.Short()) })
	if latticeErr != nil {
		t.Fatal(latticeErr)
	}
	return theLattice
}

func generateLattice(short bool) (*latticeSet, error) {
	l := &latticeSet{placed: map[string][]placedCell{}}
	for _, pa := range latticePanelAxes {
		f, ok := FamilyByName(pa.family)
		if !ok || (short && pa.paper) {
			continue
		}
		p := &latticePanel{label: pa.label, fault: pa.fault, family: f, paper: pa.paper, axes: pa.axes}
		if err := f.Check(&p.axes); err != nil {
			return nil, fmt.Errorf("panel %s: %v", pa.label, err)
		}
		p.sweeps = len(p.axes.Strategies) > 0
		p.checkpoints = f.Jobs(p.axes, func(*machine.Config) {})[0].RunCkpt != nil
		l.panels = append(l.panels, p)
	}
	var ids []latticeID
	if !short {
		ids = latticeIDs(l.panels)
	}
	paths := map[cell]string{}
	for _, p := range l.panels {
		var seeds []row
		for _, id := range ids {
			if id.in(p) {
				seeds, paths[cell{p, id.row}] = append(seeds, id.row), id.path
			}
		}
		t := 3
		switch {
		case p.paper:
			t = 0
		case short:
			t = 2
		}
		p.rows = coveringRows(seeds, t, func(r row) bool { return cell{p, r}.refusal() < 0 })
	}
	// A refusal rule no row meets gets the first small row that meets it.
	for i := range refusalRules {
		l.meet(func(c cell) bool { return c.refusal() == i })
	}
	for _, p := range l.panels {
		for _, r := range p.rows {
			path := strings.Split(paths[cell{p, r}], "/")
			if path[0] == "" {
				path[0] = "TestConfigLattice"
			}
			l.placed[path[0]] = append(l.placed[path[0]], placedCell{path[1:], cell{p, r}})
		}
	}
	return l, nil
}

// meet adds, unless some cell satisfies ok, the first row of the first small
// panel whose cell does.
func (l *latticeSet) meet(ok func(cell) bool) {
	for _, p := range l.panels {
		for _, r := range p.rows {
			if ok(cell{p, r}) {
				return
			}
		}
	}
	for _, p := range l.panels {
		for _, r := range allRows() {
			if !p.paper && ok(cell{p, r}) {
				p.rows = append(p.rows, r)
				return
			}
		}
	}
}

// latticeRef is one (panel, strategy)'s reference: the scan engine, serial,
// unobserved and uncheckpointed.
type latticeRef struct {
	once      sync.Once
	results   []exp.Result
	canonical []byte
	err       error
}

var latticeRefs sync.Map // panel label/strategy name -> *latticeRef

func (c cell) reference() *latticeRef {
	v, _ := latticeRefs.LoadOrStore(c.p.label+"/"+c.strategy().Name(), &latticeRef{})
	ref := v.(*latticeRef)
	ref.once.Do(func() {
		ref.results = exp.Run(c.p.jobs(c.strategy(), func(mc *machine.Config) {
			mc.Engine, mc.Shards = machine.EngineScan, 1
		}), exp.Serial())
		if ref.err = exp.FirstErr(ref.results); ref.err == nil {
			ref.canonical, ref.err = exp.MarshalCanonical(ref.results)
		}
	})
	return ref
}

// reportLog collects the telemetry reports a cell's runs emit, as JSON.
type reportLog struct {
	mu      sync.Mutex
	reports []string
}

func (l *reportLog) sink(r *telemetry.Report) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reports = append(l.reports, string(b))
}

// take returns the reports collected so far, sorted (a pool finishes points
// in any order), and starts over.
func (l *reportLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	got := l.reports
	l.reports = nil
	slices.Sort(got)
	return got
}

// run holds one cell to its outcome: its machine config to machine's own
// verdicts, then every point refused for the field its rule names, or the
// reference's artifact; a resumed cell's telemetry reports, traces included,
// are also the uninterrupted run's.
func (c cell) run(t *testing.T) {
	var cfg machine.Config // the mode fields of every point's config
	var reports reportLog
	jobs := c.p.jobs(c.strategy(), func(mc *machine.Config) {
		mc.Engine, mc.Shards, mc.Check = c.engine(), c.shards(), c.on(axCheck)
		if c.on(axTel) {
			mc.Telemetry = &telemetry.Options{Sink: reports.sink}
		}
		if c.on(axBeat) {
			mc.Progress = func(uint64) {}
		}
		if c.pool() > 1 {
			mc.Shards = ResolveShards(*mc, c.pool()) // as a pool owner (anton2bench, serve) does
		}
		cfg = *mc
	})
	c.verdicts(t, cfg)

	opts := exp.Options{Parallelism: c.pool()}
	if c.on(axCkpt) {
		// A resuming cell sets its interval from the reference below.
		opts.Checkpoint = exp.CheckpointOptions{Dir: t.TempDir(), Every: 1}
	}
	if i := c.refusal(); i >= 0 {
		for _, r := range exp.Run(jobs, opts) {
			if got := fieldOf(r.Err); got != refusalRules[i].field {
				t.Errorf("point %s: refused for %q, want Config.%s (%s)", r.Spec, got, refusalRules[i].field, refusalRules[i].condition)
			}
		}
		return
	}
	ref := c.reference()
	if ref.err != nil {
		t.Fatalf("reference: %v", ref.err)
	}
	var rs []exp.Result
	if c.resumes() {
		// Killed halfway, with a checkpoint every third of the way there.
		killAt := ref.results[0].Cycles / 2
		if opts.Checkpoint.Every = killAt / 3; opts.Checkpoint.Every == 0 {
			t.Fatalf("the reference's first point runs %d cycles: too few to kill after a checkpoint", ref.results[0].Cycles)
		}
		rs = killedThenResumed(t, jobs, opts, killAt, func() { reports.take() })
	} else {
		rs = exp.Run(jobs, opts)
	}
	if got, err := exp.MarshalCanonical(rs); err != nil || !bytes.Equal(got, ref.canonical) {
		t.Errorf("artifact differs from the scan reference (%v)\nscan:\n%s\ncell:\n%s", err, ref.canonical, got)
	}
	if !c.on(axTel) {
		return
	}
	got := reports.take()
	if len(got) == 0 {
		t.Error("the telemetry sink received no report")
	}
	if c.resumes() {
		exp.Run(jobs, exp.Options{Parallelism: c.pool()})
		if want := reports.take(); !slices.Equal(got, want) {
			t.Errorf("resumed telemetry reports differ from the uninterrupted run's\nuninterrupted:\n%s\nresumed:\n%s", want, got)
		}
	}
}

// verdicts holds machine's statement of the rules to the cell: Validate and
// New refuse what the rules refuse, Shardable refuses exactly the scan
// engine, every machine New builds snapshots, and auto resolves to the rule's
// count, to a config that validates. New needs
// the weight tables of an inverse-weighted arbiter, which BuildMachine
// computes: such a config skips it.
func (c cell) verdicts(t *testing.T, cfg machine.Config) {
	want := ""
	if i := c.refusal(); i >= 0 {
		want = refusalRules[i].field
	}
	if got := fieldOf(cfg.Validate()); got != want {
		t.Errorf("Validate refuses %q, want %q", got, want)
	}
	if cfg.Arbiter != arbiter.KindInverseWeighted {
		m, err := machine.New(cfg)
		if got := fieldOf(err); got != want {
			t.Errorf("New refuses %q, Validate %q", got, want)
		}
		if err == nil {
			if _, err := m.Snapshot(); err != nil {
				t.Errorf("a machine New builds does not snapshot: %v", err)
			}
		}
	}
	wantShardable := ""
	if c.engine() == machine.EngineScan {
		wantShardable = "Engine"
	}
	if got := fieldOf(cfg.Shardable()); c.engine() != "warp" && got != wantShardable {
		t.Errorf("Shardable refuses %q, want %q", got, wantShardable)
	}
	if c.shards() == 0 {
		// A pool owner has resolved it already: a count is returned as is.
		resolved, wantShards := cfg, 1
		resolved.Shards = ResolveShards(cfg, 1)
		if c.engine() != machine.EngineScan {
			procs, floor := autoLimits()
			wantShards = autoShards(procs, c.pool(), cfg.Shape.NumNodes(), floor)
		}
		if err := resolved.Validate(); resolved.Shards != wantShards || (want == "" && err != nil) {
			t.Errorf("auto resolved to %d shards (want %d), which Validate answers with %v", resolved.Shards, wantShards, err)
		}
	}
}

// runLattice runs the cells placed under t's top-level test, after their
// references. The seams hold throughout: auto sees four cores and no node
// floor, so it shards every machine, and a machine sharded explicitly
// alternates parallel and serial cycles at any shape (probeSeam). Cells run
// in parallel but for the ones that run alone (cell.alone).
func runLattice(t *testing.T) {
	l := lattice(t)
	if testing.Short() && t.Name() != "TestConfigLattice" {
		t.Skip("a named slice of the default lattice; -short runs every cell under TestConfigLattice")
	}
	limits := autoLimits
	machineBuilt, autoLimits = probeSeam, func() (int, int) { return 4, 1 }
	t.Cleanup(func() { machineBuilt, autoLimits = nil, limits })
	placed := l.placed[t.Name()]
	var warm []exp.Job // the references, on a pool as wide as the cores
	for _, pc := range placed {
		c := pc.c
		warm = append(warm, exp.Job{Spec: exp.NewSpec(c.name()), Run: func(uint64) (any, error) { return nil, c.reference().err }})
	}
	exp.Run(warm, exp.Options{})
	runPlaced(t, placed, 0)
}

// runPlaced runs cells as subtests along their paths from depth on, and each
// cell under its name.
func runPlaced(t *testing.T, placed []placedCell, depth int) {
	var order []string
	groups := map[string][]placedCell{}
	for _, pc := range placed {
		name := pc.c.name()
		if depth < len(pc.path) {
			name = pc.path[depth]
		}
		if groups[name] == nil {
			order = append(order, name)
		}
		groups[name] = append(groups[name], pc)
	}
	for _, name := range order {
		group := groups[name]
		t.Run(name, func(t *testing.T) {
			alone := false
			for _, pc := range group {
				alone = alone || pc.c.alone()
			}
			if !alone {
				t.Parallel()
			}
			if c := group[0].c; depth == len(group[0].path) {
				if c.shards() == 0 {
					ownChoice.Store(true)
					defer ownChoice.Store(false)
				}
				c.run(t)
			} else {
				runPlaced(t, group, depth+1)
			}
		})
	}
}

// TestLatticeCovers holds the generator to its claims: every t-tuple of mode
// axis values is in some row of every small panel (pairs under -short,
// triples otherwise), and in a cell that builds if any cell can hold it
// there, every registered family has a small panel and one its
// Check refuses with an *AxisError naming the axis, every registered
// strategy is in some cell, and every refusal rule refuses some cell. Adding
// a family, strategy or Validate rule without its lattice entry fails here.
func TestLatticeCovers(t *testing.T) {
	l := lattice(t)
	strength := 3
	if testing.Short() {
		strength = 2
	}
	// tuples returns the t-tuples of axis values the panel's rows hold, only
	// in cells that build if built.
	tuples := func(p *latticePanel, rows []row, built bool) map[int]bool {
		held := map[int]bool{}
		for _, r := range rows {
			if c := (cell{p, r}); !built || c.refusal() < 0 {
				for _, k := range tupleKeys(r, strength) {
					held[k] = true
				}
			}
		}
		return held
	}
	small, refused, strats := map[string]bool{}, map[string]bool{}, map[string]bool{}
	decided := make([]bool, len(refusalRules))
	for _, p := range l.panels {
		for _, r := range p.rows {
			c := cell{p, r}
			strats[c.strategy().Name()] = true
			if i := c.refusal(); i >= 0 {
				decided[i] = true
			}
		}
		if p.paper {
			continue
		}
		small[p.family.Name] = true
		for _, built := range []bool{false, true} {
			if held, all := tuples(p, p.rows, built), tuples(p, allRows(), built); len(held) != len(all) {
				t.Errorf("panel %s: %d of the %d-tuples of axis values (of built cells: %v) in no row", p.label, len(all)-len(held), strength, built)
			}
		}
	}
	for _, ra := range latticeRefusedAxes {
		f, _ := FamilyByName(ra.family)
		var ae *AxisError
		if err := f.Check(&ra.axes); !errors.As(err, &ae) || ae.Axis != ra.axis {
			t.Errorf("%s: Check = %v, want an *AxisError naming %q", ra.family, err, ra.axis)
		}
		refused[ra.family] = true
	}
	for _, f := range Families() {
		if !small[f.Name] {
			t.Errorf("family %q has no small panel", f.Name)
		}
		if !refused[f.Name] {
			t.Errorf("family %q has no panel its Check refuses", f.Name)
		}
	}
	for _, s := range route.StrategyNames() {
		if !strats[s] {
			t.Errorf("strategy %q is in no cell", s)
		}
	}
	for i, rule := range refusalRules {
		if !decided[i] {
			t.Errorf("no cell is refused for Config.%s (%s)", rule.field, rule.condition)
		}
	}
}

// TestConfigLattice runs every cell no id names: under -short, every cell.
func TestConfigLattice(t *testing.T) { runLattice(t) }

// The ids of the old matrices: each runs the cells it names.
func TestEngineDiffThroughput(t *testing.T)           { runLattice(t) }
func TestEngineDiffBlend(t *testing.T)                { runLattice(t) }
func TestEngineDiffLatency(t *testing.T)              { runLattice(t) }
func TestEngineDiffEnergy(t *testing.T)               { runLattice(t) }
func TestEngineDiffFaultSweep(t *testing.T)           { runLattice(t) }
func TestStrategyDiffThroughput(t *testing.T)         { runLattice(t) }
func TestStrategyDiffBlend(t *testing.T)              { runLattice(t) }
func TestStrategyDiffLatency(t *testing.T)            { runLattice(t) }
func TestStrategyDiffEnergy(t *testing.T)             { runLattice(t) }
func TestStrategyDiffFaultSweep(t *testing.T)         { runLattice(t) }
func TestStrategyDiffRouteCompare(t *testing.T)       { runLattice(t) }
func TestStrategyDiffMDStep(t *testing.T)             { runLattice(t) }
func TestStrategyCheckedRuns(t *testing.T)            { runLattice(t) }
func TestCkptResumeEngineStrategyMatrix(t *testing.T) { runLattice(t) }

// alternateCycles forces a sharded machine's per-cycle choice: odd cycles step
// in parallel, even ones serially, so that staged and direct cross-shard
// traffic and every transition between them run at any shape.
func alternateCycles(m *machine.Machine) {
	m.Engine.ForceParallelForTest(func(now uint64) bool { return now&1 == 1 })
}
