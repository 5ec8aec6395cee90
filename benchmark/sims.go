package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"time"

	"anton2/internal/arbiter"
	"anton2/internal/ckpt"
	"anton2/internal/core"
	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/stats"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/workload"
)

// The four simulation workloads call the core drivers directly, with no
// exp.Cache in the way, so every repetition simulates. The seed reaches only
// Machine.Seed.

// unit is one repetition of a simulation workload.
type unit struct {
	out  any           // simulated output, compared across repetitions and against pins.json
	work float64       // simulated packets delivered, the base of work_per_s
	wall time.Duration // host wall time of the unit as the workload defines it
	off  time.Duration // md_ckpt only: wall of the checkpoint-off twin
	ops  int           // driver calls made
}

// simWorkload describes one simulation workload. prepare fills the caches a
// researcher's second point would find warm (it belongs to setup_s); run
// performs one unit through the driver; reenact performs the same unit step by
// step through exported functions under spans and must produce the same out.
type simWorkload struct {
	name    string
	prepare func(seed uint64) error
	run     func(seed uint64, rep int, tmp string) (unit, error)
	reenact func(tr *Tracer, parent int, seed uint64, tmp string) (any, error)
}

var simWorkloads = []simWorkload{
	{name: "sat_8x8x8", prepare: satPrepare, run: satRun, reenact: satReenact},
	{name: "sparse_pingpong", run: sparseRun, reenact: sparseReenact},
	{name: "md_timestep", run: mdRun, reenact: mdReenact},
	{name: "md_ckpt", run: ckptRun, reenact: ckptReenact},
}

// ---- sat_8x8x8 -------------------------------------------------------------

var (
	satShape = topo.Shape3(8, 8, 8)
	mdShape  = topo.Shape3(4, 4, 2)
)

const satBatch = 4

type tpOut struct {
	Cycles     uint64  `json:"cycles"`
	Normalized float64 `json:"normalized"`
	Fairness   float64 `json:"fairness"`
}

type satOut struct {
	RR tpOut `json:"rr"`
	IW tpOut `json:"iw"`
}

// satConfigs returns the unit's two fig9 points: round-robin arbiters, then
// inverse-weighted arbiters programmed from uniform loads.
func satConfigs(seed uint64) (rr, iw core.ThroughputConfig) {
	mc := machine.DefaultConfig(satShape)
	mc.Seed = seed
	rr = core.ThroughputConfig{Machine: mc, Pattern: traffic.Uniform{}, Batch: satBatch}
	iw = rr
	iw.Machine.Arbiter = arbiter.KindInverseWeighted
	iw.WeightPatterns = []traffic.Pattern{traffic.Uniform{}}
	return rr, iw
}

func tpOutOf(r core.ThroughputResult) tpOut {
	return tpOut{Cycles: r.Cycles, Normalized: r.Normalized, Fairness: r.Fairness}
}

// satPrepare pays the cold 8x8x8 route enumeration once, as a sweep does.
func satPrepare(seed uint64) error {
	rr, _ := satConfigs(seed)
	_, err := core.PatternLoads(rr.Machine, rr.Pattern)
	return err
}

func satPackets() float64 {
	tm := topo.MustMachine(satShape)
	return float64(2 * tm.NumNodes() * len(tm.Chip.CoreEndpoints()) * satBatch)
}

func satRun(seed uint64, _ int, _ string) (unit, error) {
	rr, iw := satConfigs(seed)
	start := time.Now()
	a, err := core.RunThroughput(rr)
	if err != nil {
		return unit{}, err
	}
	b, err := core.RunThroughput(iw)
	if err != nil {
		return unit{}, err
	}
	return unit{out: satOut{RR: tpOutOf(a), IW: tpOutOf(b)}, work: satPackets(), wall: time.Since(start), ops: 2}, nil
}

func satReenact(tr *Tracer, parent int, seed uint64, _ string) (any, error) {
	rr, iw := satConfigs(seed)
	a, err := reenactThroughput(tr, parent, "rr", rr)
	if err != nil {
		return nil, err
	}
	b, err := reenactThroughput(tr, parent, "iw", iw)
	if err != nil {
		return nil, err
	}
	return satOut{RR: tpOutOf(a), IW: tpOutOf(b)}, nil
}

// reenactThroughput is core.RunThroughput (checkpointing off) spelled out
// through exported functions, one span per layer boundary.
func reenactThroughput(tr *Tracer, parent int, op string, cfg core.ThroughputConfig) (core.ThroughputResult, error) {
	var res core.ThroughputResult
	var err error
	var loads []*loadcalc.Loads
	tr.Do(parent, "core.PatternLoads", op, 0, func() {
		for _, p := range cfg.WeightPatterns {
			var l *loadcalc.Loads
			if l, err = core.PatternLoads(cfg.Machine, p); err != nil {
				return
			}
			loads = append(loads, l)
		}
	})
	if err != nil {
		return res, err
	}
	mc := cfg.Machine
	if mc.Arbiter == arbiter.KindInverseWeighted {
		tr.Do(parent, "loadcalc.BuildWeights", op, 0, func() { mc.Weights = loadcalc.BuildWeights(loads...) })
	}
	var m *machine.Machine
	tr.Do(parent, "machine.New", op, 0, func() { m, err = machine.New(mc) })
	if err != nil {
		return res, err
	}
	measured, err := core.PatternLoads(cfg.Machine, cfg.Pattern)
	if err != nil {
		return res, err
	}
	satRate := measured.SaturationRate()

	tm := m.Topo
	cores := tm.Chip.CoreEndpoints()
	numCores := tm.NumNodes() * len(cores)
	total := uint64(numCores * cfg.Batch)
	sent := make([]int, numCores)
	remaining := make([]int, tm.NumEndpointsTotal())
	finished := make([]float64, 0, numCores)
	tr.Do(parent, "sources.install", op, 0, func() {
		ci := 0
		for n := 0; n < tm.NumNodes(); n++ {
			for _, ep := range cores {
				src := topo.NodeEp{Node: n, Ep: ep}
				remaining[tm.EndpointIndex(src)] = cfg.Batch
				rng := sim.NewRNG(cfg.Machine.Seed, fmt.Sprintf("tp-src-%d-%d", n, ep))
				i := ci
				m.Endpoint(src).Source = func() *packet.Packet {
					if sent[i] >= cfg.Batch {
						return nil
					}
					sent[i]++
					dst := cfg.Pattern.Dest(tm, src, rng)
					return m.MakeRandomPacket(src, dst, route.ClassRequest, cfg.PatternID, rng)
				}
				ci++
			}
		}
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
	})
	maxCycles := uint64(50 * float64(cfg.Batch) / satRate)
	if maxCycles < 200_000 {
		maxCycles = 200_000
	}
	var end uint64
	tr.Do(parent, "machine.RunUntilDelivered", op, float64(total), func() { end, err = m.RunUntilDelivered(total, maxCycles) })
	if err != nil {
		return res, err
	}
	tr.Do(parent, "machine.FinishChecks", op, 0, func() { err = m.FinishChecks() })
	if err != nil {
		return res, err
	}
	tr.Do(parent, "machine.TorusUtilization", op, 0, func() {
		rate := float64(cfg.Batch) / float64(end)
		_, meanU, maxU := m.TorusUtilization(nil, end)
		res = core.ThroughputResult{Batch: cfg.Batch, Cycles: end, Normalized: rate / satRate,
			MeanUtilization: meanU, MaxUtilization: maxU, Fairness: stats.JainIndex(finished)}
	})
	return res, nil
}

// ---- sparse_pingpong -------------------------------------------------------

const sparsePingPongs = 64

type latOut struct {
	SlopeNS     float64 `json:"slope_ns"`
	InterceptNS float64 `json:"intercept_ns"`
	MinNS       float64 `json:"min_ns"`
}

func sparseConfig(seed uint64) core.LatencyConfig {
	cfg := core.DefaultLatencyConfig(satShape)
	cfg.PingPongs = sparsePingPongs
	cfg.Machine.Seed = seed
	return cfg
}

func latOutOf(r core.LatencyResult) latOut {
	return latOut{SlopeNS: r.SlopeNS, InterceptNS: r.InterceptNS, MinNS: r.MinNS}
}

// latMessages counts the one-way messages a fig11 sweep simulated.
func latMessages(r core.LatencyResult) float64 {
	pairs := 0
	for _, p := range r.Points {
		pairs += p.Pairs
	}
	return float64(2 * sparsePingPongs * pairs)
}

func sparseRun(seed uint64, _ int, _ string) (unit, error) {
	start := time.Now()
	r, err := core.RunLatency(sparseConfig(seed))
	if err != nil {
		return unit{}, err
	}
	return unit{out: latOutOf(r), work: latMessages(r), wall: time.Since(start), ops: 1}, nil
}

// sparseReenact is core.RunLatency spelled out: build, then one RunUntil span
// per endpoint pair, then the fit.
func sparseReenact(tr *Tracer, parent int, seed uint64, _ string) (any, error) {
	cfg := sparseConfig(seed)
	var m *machine.Machine
	var err error
	tr.Do(parent, "core.BuildMachine", satShape.String(), 0, func() { m, _, err = core.BuildMachine(cfg.Machine) })
	if err != nil {
		return nil, err
	}
	tm := m.Topo
	maxHops := 0
	for d := 0; d < topo.NumDims; d++ {
		maxHops += tm.Shape.K[d] / 2
	}
	byHops := map[int][]int{}
	for n := 1; n < tm.NumNodes(); n++ {
		h := tm.Shape.HopDistance(tm.Shape.Coord(0), tm.Shape.Coord(n))
		byHops[h] = append(byHops[h], n)
	}
	rng := sim.NewRNG(cfg.Machine.Seed, "latency-pairs")
	cores := tm.Chip.CoreEndpoints()
	out := latOut{MinNS: 1e18}
	var xs, ys []float64
	for h := 1; h <= maxHops; h++ {
		nodes := byHops[h]
		if len(nodes) == 0 {
			continue
		}
		var lat []float64
		for p := 0; p < cfg.PairsPerHop; p++ {
			a := topo.NodeEp{Node: 0, Ep: cores[rng.Intn(len(cores))]}
			b := topo.NodeEp{Node: nodes[rng.Intn(len(nodes))], Ep: cores[rng.Intn(len(cores))]}
			oneWay, err := reenactPingPong(tr, parent, m, cfg, a, b, rng)
			if err != nil {
				return nil, err
			}
			lat = append(lat, oneWay)
			if h == 1 && oneWay < out.MinNS {
				out.MinNS = oneWay
			}
		}
		xs = append(xs, float64(h))
		ys = append(ys, stats.Mean(lat))
	}
	tr.Do(parent, "stats.LinearFit", "", 0, func() { out.SlopeNS, out.InterceptNS, _ = stats.LinearFit(xs, ys) })
	if err := m.FinishChecks(); err != nil {
		return nil, err
	}
	return out, nil
}

func reenactPingPong(tr *Tracer, parent int, m *machine.Machine, cfg core.LatencyConfig, a, b topo.NodeEp, rng *rand.Rand) (float64, error) {
	var t0, totalRT uint64
	completed := 0
	send := func(src, dst topo.NodeEp, now uint64) {
		p := m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng)
		p.NotBefore = now + cfg.SendOverhead + m.Cfg.EndpointPipeline
		m.Endpoint(src).Inject(p)
	}
	epA, epB := m.Endpoint(a), m.Endpoint(b)
	epB.OnDeliver = func(_ *packet.Packet, now uint64) bool {
		send(b, a, now+cfg.RecvOverhead)
		return false
	}
	done := false
	epA.OnDeliver = func(_ *packet.Packet, now uint64) bool {
		totalRT += now + cfg.RecvOverhead - t0
		completed++
		if completed < cfg.PingPongs {
			t0 = now + cfg.RecvOverhead
			send(a, b, t0)
		} else {
			done = true
		}
		return false
	}
	t0 = m.Engine.Now()
	send(a, b, t0)
	var err error
	tr.Do(parent, "sim.Engine.RunUntil", "pingpong", float64(2*cfg.PingPongs), func() {
		err = m.Engine.RunUntil(func() bool { return done }, 4_000_000, 100_000)
	})
	epA.OnDeliver, epB.OnDeliver = nil, nil
	if err != nil {
		return 0, err
	}
	return machine.CyclesToNS(float64(totalRT) / float64(completed) / 2), nil
}

// ---- md_timestep -----------------------------------------------------------

type mdOut struct {
	TotalCycles uint64   `json:"total_cycles"`
	PhaseCycles []uint64 `json:"phase_cycles"`
}

func mdOutOf(phases []workload.PhaseResult, total uint64) (mdOut, float64) {
	out := mdOut{TotalCycles: total}
	delivered := 0.0
	for _, p := range phases {
		out.PhaseCycles = append(out.PhaseCycles, p.Cycles)
		delivered += float64(p.Delivered)
	}
	return out, delivered
}

func mdConfig(seed uint64, strat route.Strategy, timesteps int) core.MDStepConfig {
	cfg := core.MDStepConfig{Machine: machine.DefaultConfig(mdShape), Workload: workload.Spec{Timesteps: timesteps}}
	cfg.Machine.Seed = seed
	cfg.Machine.Scheme = strat
	return cfg
}

const mdTimesteps = 4

func mdRun(seed uint64, _ int, _ string) (unit, error) {
	u := unit{}
	outs := map[string]mdOut{}
	start := time.Now()
	for _, strat := range route.Strategies() {
		pt, err := core.RunMDStepPoint(mdConfig(seed, strat, mdTimesteps))
		if err != nil {
			return unit{}, err
		}
		o, delivered := mdOutOf(pt.Phases, pt.TotalCycles)
		outs[strat.Name()] = o
		u.work += delivered
		u.ops++
	}
	u.wall, u.out = time.Since(start), outs
	return u, nil
}

func mdReenact(tr *Tracer, parent int, seed uint64, _ string) (any, error) {
	outs := map[string]mdOut{}
	for _, strat := range route.Strategies() {
		res, err := reenactMDStep(tr, parent, mdConfig(seed, strat, mdTimesteps), ckpt.RunConfig{})
		if err != nil {
			return nil, err
		}
		outs[strat.Name()], _ = mdOutOf(res.Phases, res.TotalCycles)
	}
	return outs, nil
}

// reenactMDStep is core.RunMDStepPoint (rc disabled) or RunMDStepPointCkpt (rc
// enabled, no resume) spelled out. With checkpointing on, every snapshot
// boundary records its own machine.Snapshot / json.Marshal / ckpt.Encode /
// ckpt.AtomicWriteFile spans inside the workload span, so that span's self
// time is the simulation alone.
func reenactMDStep(tr *Tracer, parent int, cfg core.MDStepConfig, rc ckpt.RunConfig) (workload.Result, error) {
	op := cfg.Machine.Scheme.Name()
	mc := cfg.Machine
	spec := cfg.Workload.WithDefaults()
	tm, err := topo.NewMachine(mc.Shape)
	if err != nil {
		return workload.Result{}, err
	}
	tr.Do(parent, "workload.Spec.Tables", op, 0, func() { mc.Multicast = spec.Tables(tm) })
	var m *machine.Machine
	tr.Do(parent, "core.BuildMachine", mc.Shape.String(), 0, func() { m, _, err = core.BuildMachine(mc) })
	if err != nil {
		return workload.Result{}, err
	}
	var res workload.Result
	if !rc.Enabled() {
		tr.Do(parent, "workload.Run", op, 0, func() { res, err = workload.Run(m, spec, nil, cfg.MaxPhaseCycles) })
	} else {
		tag := core.MDStepSpec(cfg).Canonical()
		run := tr.Begin(parent, "workload.RunResumable", op)
		var sinkErr error
		sink := func(p workload.Progress) {
			var snap *machine.Snapshot
			var mb, db, enc []byte
			var e error
			tr.Do(run, "machine.Snapshot", "", 0, func() { snap, e = m.Snapshot() })
			if e == nil {
				id := tr.Begin(run, "json.Marshal", "snapshot")
				if mb, e = json.Marshal(snap); e == nil {
					db, e = json.Marshal(p)
				}
				tr.End(id, float64(len(mb)))
			}
			if e == nil {
				id := tr.Begin(run, "ckpt.Encode", "")
				enc, e = ckpt.New(tag, snap.Now).Add("machine", mb).Add("driver", db).Encode()
				tr.End(id, float64(len(enc)))
			}
			if e == nil {
				tr.Do(run, "ckpt.AtomicWriteFile", "", float64(len(enc)), func() { e = ckpt.AtomicWriteFile(rc.Path, enc) })
			}
			if e != nil && sinkErr == nil {
				sinkErr = e
			}
		}
		res, err = workload.RunResumable(m, spec, cfg.MaxPhaseCycles, nil, rc.Every, sink)
		tr.End(run, 0)
		if err == nil {
			err = sinkErr
		}
		rc.Discard()
	}
	if err != nil {
		return res, err
	}
	return res, m.FinishChecks()
}

// ---- md_ckpt ---------------------------------------------------------------

const (
	ckptTimesteps = 8
	ckptEvery     = 250
)

func ckptConfig(seed uint64, tmp string) (core.MDStepConfig, ckpt.RunConfig) {
	return mdConfig(seed, route.AntonScheme{}, ckptTimesteps),
		ckpt.RunConfig{Path: filepath.Join(tmp, "md.ckpt"), Every: ckptEvery}
}

// ckptRun runs the anton point with checkpointing on and off, alternating
// which goes first so neither always inherits the other's garbage. The two
// results must be deeply equal.
func ckptRun(seed uint64, rep int, tmp string) (unit, error) {
	cfg, rc := ckptConfig(seed, tmp)
	var on, off core.MDStepPoint
	var err error
	var u unit
	runOn := func() {
		start := time.Now()
		on, err = core.RunMDStepPointCkpt(cfg, rc)
		u.wall = time.Since(start)
	}
	runOff := func() {
		start := time.Now()
		off, err = core.RunMDStepPoint(cfg)
		u.off = time.Since(start)
	}
	first, second := runOn, runOff
	if rep%2 == 1 {
		first, second = runOff, runOn
	}
	if first(); err != nil {
		return unit{}, err
	}
	if second(); err != nil {
		return unit{}, err
	}
	if !reflect.DeepEqual(on, off) {
		return unit{}, fmt.Errorf("checkpoint-on result differs from checkpoint-off result")
	}
	u.out, u.work = mdOutOf(on.Phases, on.TotalCycles)
	u.ops = 2
	return u, nil
}

func ckptReenact(tr *Tracer, parent int, seed uint64, tmp string) (any, error) {
	cfg, rc := ckptConfig(seed, tmp)
	res, err := reenactMDStep(tr, parent, cfg, rc)
	if err != nil {
		return nil, err
	}
	out, _ := mdOutOf(res.Phases, res.TotalCycles)
	return out, nil
}
