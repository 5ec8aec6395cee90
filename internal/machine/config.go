// Package machine assembles and simulates a complete Anton 2 network: per
// node a 4x4 mesh of six-port routers with skip channels, 23 endpoint
// adapters, and 12 torus-channel adapters; nodes wired into a channel-sliced
// 3-D torus. Flow control is credit-based virtual cut-through with separate
// request/reply traffic classes, and arbitration is pluggable between
// locally fair round-robin and the inverse-weighted arbiters of Section 3.
package machine

import (
	"fmt"

	"anton2/internal/arbiter"
	"anton2/internal/fault"
	"anton2/internal/loadcalc"
	"anton2/internal/multicast"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
)

// Clock parameters (Section 2.2): the on-chip network runs at 1.5 GHz.
const (
	// cyclePS is the cycle time in picoseconds.
	cyclePS = 1000000 / 1500 // 666 ps
)

// progressCycles is the cadence of Config.Progress, in simulated cycles:
// coarse enough that the callback never shows in a profile.
const progressCycles = 1024

// CyclesToNS converts cycles to nanoseconds.
func CyclesToNS(cycles float64) float64 { return cycles * float64(cyclePS) / 1000.0 }

// Config parameterizes a simulated machine.
type Config struct {
	// Shape is the torus radix per dimension.
	Shape topo.TorusShape
	// Scheme is the routing strategy: VC promotion discipline plus path
	// policy. Nil selects the paper's; read it through Strategy, the one
	// place that default is spelled.
	Scheme route.Strategy
	// Arbiter selects round-robin or inverse-weighted arbitration
	// throughout the network.
	Arbiter arbiter.Kind
	// Weights supplies the inverse-weight tables (required when Arbiter
	// is KindInverseWeighted).
	Weights *loadcalc.WeightSet

	// EndpointPipeline is the endpoint adapter's send latency in cycles: 4
	// on every machine this repository builds, and at least 1 (Validate).
	// Buffer depths, the other pipeline depths, channel latencies and the
	// torus serialization rate are the paper's constants (package topo).
	EndpointPipeline uint64

	// TrackEnergy enables the per-channel event counters feeding the
	// Section 4.5 energy model.
	TrackEnergy bool

	// Multicast holds the loaded multicast routing tables by group id
	// (Section 2.3); nil disables multicast.
	Multicast map[int]*multicast.Compiled

	// Check attaches the internal/check invariant suite: flit
	// conservation, credit accounting, VC-promotion monotonicity,
	// dimension-order progress, and exactly-once multicast delivery are
	// verified as the simulation runs, sharded or not. Checking does not
	// perturb the simulation (results are bit-identical with it on or off);
	// it is excluded from experiment cache keys for the same reason.
	Check bool

	// Telemetry, when non-nil, attaches an internal/telemetry collector:
	// windowed per-channel utilization, per-router per-VC occupancy
	// histograms, per-arbiter grant counters, and packet traces, sharded or
	// not. Like Check it never perturbs the simulation and is excluded from
	// experiment cache keys.
	Telemetry *telemetry.Options

	// Progress, when non-nil, is the live heartbeat: New installs it as an
	// engine observer that calls it with the clock at every multiple of
	// progressCycles (anton2serve streams it to SSE clients); a restored
	// machine also reports its resumed clock on its first step. It reads
	// nothing but the clock, so Validate, Shardable, snapshots and
	// experiment cache keys ignore it. It runs on the simulating goroutine,
	// between steps, and must be fast and non-blocking.
	Progress func(cycles uint64)

	// Fault, when non-nil, attaches the internal/fault layer: deterministic
	// injection of transient flit corruption, link stalls, credit loss, and
	// permanent link outages, countered by go-back-N reliable-link
	// retransmission and injection-time rerouting around failed links. The
	// injector is seeded from Seed, so the same config reproduces the same
	// fault schedule. Nil preserves the paper's lossless-channel model with
	// zero overhead and bit-identical results.
	Fault *fault.Spec

	// Seed makes runs reproducible.
	Seed uint64

	// Engine selects the cycle-kernel scheduling mode: EngineActive (the
	// default when empty) ticks only components with scheduled work and
	// skips fully idle cycles; EngineScan is the legacy
	// every-component-every-cycle loop, kept as an escape hatch and as the
	// differential-testing reference. The two produce bit-identical
	// results, so Engine is excluded from experiment cache keys.
	Engine string

	// Shards, when > 1, splits the simulation across that many goroutines
	// (contiguous node ranges): dense cycles step in parallel with a
	// deterministic phase-barrier merge, sparse ones serially, and results
	// stay bit-identical to a serial run. Validate lists what it does not
	// compose with. Clamped to the node count. 1 is the serial engine. 0 is
	// auto: the core drivers (core.BuildMachine) resolve it from GOMAXPROCS
	// and the machine size, to 1 wherever Shardable refuses; New itself
	// builds it serial. Like Engine, it never changes results and is
	// excluded from cache keys.
	Shards int
}

// Strategy returns the routing strategy the config selects: Scheme, or the
// Anton n+1 scheme of Section 2.5 when it is nil. Every reader of a Config
// that may not have been through New names the strategy through here.
func (c Config) Strategy() route.Strategy {
	if c.Scheme == nil {
		return route.AntonScheme{}
	}
	return c.Scheme
}

// RouteConfig returns the routing configuration the config describes over
// the topology tm: what New routes with and what the analytic consumers
// (load calculation, deadlock analysis) must be handed to agree with it. The
// direction order and skip policy are route.NewConfig's; the ablations of
// either are analytic and vary the route.Config directly.
func (c Config) RouteConfig(tm *topo.Machine) *route.Config {
	rc := route.NewConfig(tm)
	rc.Scheme = c.Strategy()
	return rc
}

// ConfigError is a Config that Validate refuses, naming the offending field.
type ConfigError struct {
	Field string // the Config field, e.g. "Shards"
	Msg   string
}

func (e *ConfigError) Error() string { return "machine: Config." + e.Field + ": " + e.Msg }

// Validate is the one statement of which modes compose: it returns a
// *ConfigError for an unknown engine, a negative shard count, an endpoint
// pipeline of 0 cycles, an explicit shard count above 1 combined with
// anything Shardable refuses, or an invalid fault spec. Shards == 0 (auto)
// never errors on account of sharding: it resolves to serial where an explicit
// count would be refused. Validate reads no derived
// input (topology, weight tables), so the CLIs call it on the config their
// flags describe, before anything runs; New calls it first and builds every
// config it accepts, given a valid Shape and the Weights an inverse-weighted
// Arbiter needs.
func (c Config) Validate() error {
	switch {
	case c.Engine != "" && c.Engine != EngineActive && c.Engine != EngineScan:
		return &ConfigError{"Engine", fmt.Sprintf("unknown engine %q (valid: %s, %s)", c.Engine, EngineActive, EngineScan)}
	case c.Shards < 0:
		return &ConfigError{"Shards", fmt.Sprintf("shards must be >= 0, got %d", c.Shards)}
	case c.EndpointPipeline == 0:
		// Nothing asks for it, and sharded stepping cannot order it: a
		// cross-endpoint OnDeliver callback could observe same-cycle state
		// a serial step would already have updated.
		return &ConfigError{"EndpointPipeline", "the endpoint pipeline must be at least 1 cycle"}
	case c.Shards > 1:
		if err := c.Shardable(); err != nil {
			return err
		}
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return &ConfigError{"Fault", err.Error()}
		}
	}
	return nil
}

// Shardable reports whether the config composes with sharded stepping,
// whatever its Shards says: the one thing that assumes single-threaded
// stepping, the scan engine, is a *ConfigError. Validate applies it to an
// explicit Shards > 1; the auto resolver (core.ResolveShards) applies it to
// Shards == 0 and falls back to serial.
func (c Config) Shardable() error {
	if c.Engine == EngineScan {
		return &ConfigError{"Engine", "sharded stepping requires the active engine"}
	}
	return nil
}

// Engine mode names for Config.Engine.
const (
	EngineActive = "active"
	EngineScan   = "scan"
)

// DefaultConfig returns the paper-faithful configuration for a torus shape.
func DefaultConfig(shape topo.TorusShape) Config {
	return Config{
		Shape:            shape,
		Scheme:           route.AntonScheme{},
		Arbiter:          arbiter.KindRoundRobin,
		EndpointPipeline: 4,
		Seed:             1,
	}
}
