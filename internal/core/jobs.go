package core

import (
	"fmt"

	"anton2/internal/ckpt"
	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/power"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// This file adapts the figure runners to the internal/exp orchestrator: each
// experiment configuration becomes an exp.Job whose spec canonically encodes
// every result-affecting parameter. The job's machine seed is derived from
// the spec hash (exp.Spec.Seed), so a point's random streams depend only on
// what it measures — never on worker scheduling — and serial and parallel
// sweeps are bit-identical.

// pointJob is the one adapter from a point runner to the orchestrator: the job
// runs a copy of cfg whose machine config (reached through mc) carries the
// spec-derived seed. run is the family's checkpoint-aware runner: the job's
// Run passes it a zero ckpt.RunConfig. When resumable, the job's RunCkpt
// passes it exp's, so under exp's Checkpoint options it persists snapshots
// as it runs, and a restarted sweep picks up from the last one.
func pointJob[C, R any](spec *exp.Spec, cfg C, mc func(*C) *machine.Config,
	run func(C, ckpt.RunConfig) (R, error), resumable bool) exp.Job {
	seeded := func(seed uint64) C {
		c := cfg
		mc(&c).Seed = seed
		return c
	}
	job := exp.Job{
		Spec: spec,
		Run:  func(seed uint64) (any, error) { return run(seeded(seed), ckpt.RunConfig{}) },
	}
	if resumable {
		job.RunCkpt = func(seed uint64, rc ckpt.RunConfig) (any, error) { return run(seeded(seed), rc) }
	}
	return job
}

// SimCycles lets exp record simulated cycle counts in artifacts.
func (r ThroughputResult) SimCycles() uint64 { return r.Cycles }

// SimCycles lets exp record simulated cycle counts in artifacts.
func (r BlendResult) SimCycles() uint64 { return r.Cycles }

// addMachine encodes every result-affecting machine.Config field into the
// spec. Table-valued fields (Multicast, Weights) are encoded by presence:
// weights are derived from the listed weight patterns, and the sweeps in this
// package never set Multicast. Check and Telemetry are deliberately excluded —
// the observability layers never affect results, so toggling them must not
// change cache keys. The nineteen tokens are frozen — stored artifacts are
// addressed by their hash — so the twelve that no Config field sets any
// more are still written: package topo's eight constants, the direction
// order and the two skip tokens (always route.NewConfig's) and per-link
// latencies (always off).
func addMachine(s *exp.Spec, cfg machine.Config) *exp.Spec {
	s.Add("shape", cfg.Shape).
		Add("scheme", cfg.Strategy().Name()).
		Add("dir", topo.DefaultDirOrder).
		Add("skip", true).
		Add("exitskip", true).
		Add("arb", cfg.Arbiter).
		Add("meshbuf", topo.MeshVCBuf).
		Add("torusbuf", topo.TorusVCBuf).
		Add("rpipe", topo.RouterPipeline).
		Add("apipe", topo.AdapterPipeline).
		Add("epipe", cfg.EndpointPipeline).
		Add("meshlat", topo.MeshLatency).
		Add("toruslat", topo.TorusLatency).
		Add("creditlat", topo.CreditLatency).
		Add("linklat", false).
		Add("rate", topo.TorusRateMilli).
		Add("energy", cfg.TrackEnergy).
		Add("mcast", cfg.Multicast != nil).
		Add("seed", cfg.Seed)
	// The fault spec changes results, so it must key the cache — but only
	// when present: fault-free configurations keep their pre-fault-layer
	// canonical strings, so existing caches and bit-identity guarantees
	// survive.
	if cfg.Fault != nil {
		s.Add("fault", cfg.Fault.Canonical())
	}
	return s
}

func patternNames(pats []traffic.Pattern) string {
	names := ""
	for i, p := range pats {
		if i > 0 {
			names += "+"
		}
		names += p.Name()
	}
	return names
}

// noCycleBound is the frozen maxcycles token of the batch families' specs:
// no caller bounds a point's cycles (cycleBudget does), as every stored spec
// says.
const noCycleBound = 0

// throughputSpec canonically identifies one Figure 9 style point.
func throughputSpec(cfg ThroughputConfig) *exp.Spec {
	s := exp.NewSpec("throughput")
	addMachine(s, cfg.Machine)
	return s.Add("pattern", cfg.Pattern.Name()).
		Add("weights", patternNames(cfg.WeightPatterns)).
		Add("pid", cfg.PatternID).
		Add("batch", cfg.Batch).
		Add("maxcycles", noCycleBound)
}

// ThroughputJob wraps one runThroughput call for the orchestrator.
func ThroughputJob(cfg ThroughputConfig) exp.Job {
	return pointJob(throughputSpec(cfg), cfg, func(c *ThroughputConfig) *machine.Config { return &c.Machine }, runThroughput, true)
}

// blendSpec canonically identifies one Figure 10 blend point.
func blendSpec(cfg BlendConfig) *exp.Spec {
	s := exp.NewSpec("blend")
	addMachine(s, cfg.Machine)
	return s.Add("f", cfg.ForwardFraction).
		Add("weights", cfg.Weights).
		Add("batch", cfg.Batch).
		Add("maxcycles", noCycleBound)
}

// BlendJob wraps one runBlend call for the orchestrator.
func BlendJob(cfg BlendConfig) exp.Job {
	return pointJob(blendSpec(cfg), cfg, func(c *BlendConfig) *machine.Config { return &c.Machine }, runBlend, true)
}

// latencySpec canonically identifies one Figure 11 latency sweep. The sweep
// always runs to the diameter; the frozen maxhops=0 token still says so.
func latencySpec(cfg LatencyConfig) *exp.Spec {
	s := exp.NewSpec("latency")
	addMachine(s, cfg.Machine)
	return s.Add("sendover", cfg.SendOverhead).
		Add("recvover", cfg.RecvOverhead).
		Add("pingpongs", cfg.PingPongs).
		Add("pairs", cfg.PairsPerHop).
		Add("maxhops", 0)
}

// LatencyJob wraps one RunLatency sweep for the orchestrator.
func LatencyJob(cfg LatencyConfig) exp.Job {
	run := func(c LatencyConfig, _ ckpt.RunConfig) (LatencyResult, error) { return RunLatency(c) }
	return pointJob(latencySpec(cfg), cfg, func(c *LatencyConfig) *machine.Config { return &c.Machine }, run, false)
}

// energySpec canonically identifies one Figure 13 energy point. The model
// token spells out power.PaperModel, which prices every point.
func energySpec(cfg EnergyConfig) *exp.Spec {
	m := power.PaperModel
	s := exp.NewSpec("energy")
	addMachine(s, cfg.Machine)
	return s.Add("model", fmt.Sprintf("%g/%g/%g/%g", m.Fixed, m.PerBitFlip, m.PerActivation, m.PerActSetBit)).
		Add("ratenum", cfg.RateNum).
		Add("rateden", cfg.RateDen).
		Add("payload", cfg.Payload).
		Add("flits", cfg.Flits)
}

// EnergyJob wraps one RunEnergy two-route subtraction for the orchestrator.
func EnergyJob(cfg EnergyConfig) exp.Job {
	run := func(c EnergyConfig, _ ckpt.RunConfig) (EnergyPoint, error) { return RunEnergy(c) }
	return pointJob(energySpec(cfg), cfg, func(c *EnergyConfig) *machine.Config { return &c.Machine }, run, false)
}
