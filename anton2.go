// Package anton2 is a software reproduction of the Anton 2 network
// architecture described in "Unifying on-chip and inter-node switching
// within the Anton 2 network" (Towles, Grossman, Greskamp, Shaw; ISCA 2014).
//
// Anton 2 unifies its on-chip network (a 4x4 mesh per ASIC) with the
// inter-node network (a channel-sliced 3-D torus of up to 4,096 ASICs): the
// mesh doubles as the switch for inter-node traffic. This package exposes:
//
//   - a cycle-level simulator of the unified network (routers, endpoint
//     adapters, torus-channel adapters, credit-based virtual cut-through,
//     request/reply traffic classes);
//   - the paper's routing algorithms: randomized minimal dimension-order
//     inter-node routing over two torus slices, direction-order on-chip
//     routing with skip channels, and the n+1-VC deadlock-avoidance scheme
//     of Section 2.5 (with the prior 2n-VC scheme for comparison);
//   - the inverse-weighted arbiters of Section 3, bit-accurate to the
//     paper's Figures 6-8, with offline load computation for weight tables;
//   - analysis tools: worst-case switching-demand search (Section 2.4),
//     static VC-dependency deadlock verification, silicon area and router
//     energy models, and the Figure 2 packaging model;
//   - experiment runners regenerating each figure and table of the paper's
//     evaluation.
//
// Quick start:
//
//	cfg := anton2.DefaultConfig(anton2.NewShape(4, 4, 4))
//	res, err := anton2.RunThroughput(anton2.ThroughputConfig{
//		Machine: cfg,
//		Pattern: anton2.Uniform{},
//		Batch:   256,
//	})
//
// See the examples directory and cmd/anton2bench for complete programs.
package anton2

import (
	"anton2/internal/arbiter"
	"anton2/internal/area"
	"anton2/internal/core"
	"anton2/internal/deadlock"
	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/multicast"
	"anton2/internal/packaging"
	"anton2/internal/power"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/wctraffic"
)

// Topology.
type (
	// Shape is the torus radix per dimension (4x4x1 up to 16x16x16).
	Shape = topo.TorusShape
	// NodeCoord locates an ASIC in the torus.
	NodeCoord = topo.NodeCoord
	// NodeEp identifies an endpoint adapter on a node.
	NodeEp = topo.NodeEp
	// MeshCoord locates a router within the on-chip 4x4 mesh.
	MeshCoord = topo.MeshCoord
	// Dim is a torus dimension (X, Y, Z).
	Dim = topo.Dim
	// Direction is a signed torus direction.
	Direction = topo.Direction
	// DimOrder is an inter-node dimension traversal order.
	DimOrder = topo.DimOrder
	// DirOrder is an on-chip direction-order algorithm.
	DirOrder = topo.DirOrder
)

// NewShape builds a torus shape.
func NewShape(kx, ky, kz int) Shape { return topo.Shape3(kx, ky, kz) }

// Torus dimensions and directions.
const (
	DimX = topo.DimX
	DimY = topo.DimY
	DimZ = topo.DimZ
	XPos = topo.XPos
	XNeg = topo.XNeg
	YPos = topo.YPos
	YNeg = topo.YNeg
	ZPos = topo.ZPos
	ZNeg = topo.ZNeg
)

// Simulator configuration and machine.
type (
	// Config parameterizes a simulated machine. Config.Engine selects the
	// cycle kernel (EngineActive default, EngineScan reference) and
	// Config.Shards the goroutine shard count (0 = auto when a core driver
	// builds the machine, 1 = serial); both are pure scheduling choices with
	// bit-identical results.
	Config = machine.Config
	// Machine is a fully wired simulated network.
	Machine = machine.Machine
)

// Cycle-engine selectors for Config.Engine.
const (
	// EngineActive is the default active-set scheduler: only components
	// with pending work tick, and fully idle cycles are skipped.
	EngineActive = machine.EngineActive
	// EngineScan is the reference loop ticking every component every
	// cycle; results are bit-identical to EngineActive, only slower.
	EngineScan = machine.EngineScan
)

// DefaultConfig returns the paper-faithful configuration for a shape.
func DefaultConfig(shape Shape) Config { return machine.DefaultConfig(shape) }

// NewMachine builds and wires a machine.
func NewMachine(cfg Config) (*Machine, error) { return machine.New(cfg) }

// CyclesToNS converts 1.5 GHz network cycles to nanoseconds.
func CyclesToNS(cycles float64) float64 { return machine.CyclesToNS(cycles) }

// Observability (attach via Config.Telemetry; never perturbs results).
type (
	// TelemetryOptions tunes the opt-in zero-cost-off telemetry collector:
	// windowed channel utilization, VC occupancy, arbiter grant shares, and
	// packet lifecycle traces.
	TelemetryOptions = telemetry.Options
	// TelemetryReport is the finished telemetry summary.
	TelemetryReport = telemetry.Report
)

// RenderHeatmap renders a telemetry report's torus channel utilization as a
// text heatmap.
func RenderHeatmap(r *TelemetryReport) string { return telemetry.RenderHeatmap(r) }

// Arbitration flavors.
const (
	RoundRobinArbiters      = arbiter.KindRoundRobin
	InverseWeightedArbiters = arbiter.KindInverseWeighted
)

// VC promotion schemes (Section 2.5).
type (
	// AntonScheme is the paper's n+1-VC promotion algorithm.
	AntonScheme = route.AntonScheme
	// BaselineScheme is the prior 2n-VC approach.
	BaselineScheme = route.BaselineScheme
)

// Traffic patterns (Section 4).
type (
	// Uniform is uniform random traffic.
	Uniform = traffic.Uniform
	// NHop is n-hop neighbor traffic.
	NHop = traffic.NHop
	// Pattern is any node-symmetric traffic pattern.
	Pattern = traffic.Pattern
)

// Tornado and ReverseTornado are the adversarial permutations of
// Section 4.2.
func Tornado() Pattern        { return traffic.Tornado() }
func ReverseTornado() Pattern { return traffic.ReverseTornado() }

// Experiments.
type (
	// ThroughputConfig drives a Figure 9 batch-throughput measurement.
	ThroughputConfig = core.ThroughputConfig
	// ThroughputResult is one measured throughput point.
	ThroughputResult = core.ThroughputResult
	// BlendConfig drives a Figure 10 pattern-blending measurement.
	BlendConfig = core.BlendConfig
	// BlendResult is one measured blend point.
	BlendResult = core.BlendResult
	// WeightMode selects the Figure 10 weight configuration.
	WeightMode = core.WeightMode
	// LatencyConfig drives the Figure 11 ping-pong measurement.
	LatencyConfig = core.LatencyConfig
	// LatencyResult is a full latency sweep with its linear fit.
	LatencyResult = core.LatencyResult
	// EnergyConfig drives a Section 4.5 router-energy measurement.
	EnergyConfig = core.EnergyConfig
	// EnergyPoint is one measured per-flit energy.
	EnergyPoint = core.EnergyPoint
	// PayloadKind selects the Figure 13 payload patterns.
	PayloadKind = core.PayloadKind
)

// Figure 10 weight modes.
const (
	WeightsNone    = core.WeightsNone
	WeightsForward = core.WeightsForward
	WeightsReverse = core.WeightsReverse
	WeightsBoth    = core.WeightsBoth
)

// Figure 13 payload patterns.
const (
	PayloadZeros  = core.PayloadZeros
	PayloadOnes   = core.PayloadOnes
	PayloadRandom = core.PayloadRandom
)

// Parallel experiment orchestration (internal/exp): sweeps fan independent
// points out over a bounded worker pool with per-point seeds derived from
// canonical spec hashes, so any pool size — including serial — produces
// bit-identical results.
type (
	// SweepOptions configures a sweep execution: worker-pool size, result
	// cache, checkpointing, and progress reporting.
	SweepOptions = exp.Options
	// SweepResult is the structured per-point outcome written to JSON
	// artifacts.
	SweepResult = exp.Result
)

// SerialSweep runs sweep points one at a time in order.
func SerialSweep() SweepOptions { return exp.Serial() }

// ParallelSweep runs sweep points over a worker pool (0 = GOMAXPROCS).
func ParallelSweep(workers int) SweepOptions { return exp.Parallel(workers) }

// ThroughputSweepOpts runs a batch-size sweep through the orchestrator.
func ThroughputSweepOpts(cfg ThroughputConfig, batches []int, opts SweepOptions) ([]ThroughputResult, error) {
	return core.ThroughputSweepOpts(cfg, batches, opts)
}

// BlendSweepOpts runs a blend-fraction sweep through the orchestrator.
func BlendSweepOpts(cfg BlendConfig, fractions []float64, opts SweepOptions) ([]BlendResult, error) {
	return core.BlendSweepOpts(cfg, fractions, opts)
}

// EnergySweepOpts runs an injection-rate sweep through the orchestrator.
func EnergySweepOpts(mcfg Config, model power.Model, payload PayloadKind, rates [][2]int, flits int, opts SweepOptions) ([]EnergyPoint, error) {
	return core.EnergySweepOpts(mcfg, model, payload, rates, flits, opts)
}

// RunThroughput executes one Figure 9 style batch measurement.
func RunThroughput(cfg ThroughputConfig) (ThroughputResult, error) { return core.RunThroughput(cfg) }

// RunBlend executes one Figure 10 blend measurement.
func RunBlend(cfg BlendConfig) (BlendResult, error) { return core.RunBlend(cfg) }

// DefaultLatencyConfig returns a calibrated Figure 11 configuration.
func DefaultLatencyConfig(shape Shape) LatencyConfig { return core.DefaultLatencyConfig(shape) }

// RunLatency measures one-way latency versus inter-node hops (Figure 11).
func RunLatency(cfg LatencyConfig) (LatencyResult, error) { return core.RunLatency(cfg) }

// DecomposeMinLatency derives the Figure 12 minimum-latency budget.
func DecomposeMinLatency(cfg LatencyConfig) []core.LatencyComponent {
	return core.DecomposeMinLatency(cfg)
}

// MeasureDecomposition traces a nearest-neighbor packet through an idle
// machine and returns the observed per-stage latencies (measured Figure 12).
func MeasureDecomposition(cfg LatencyConfig) ([]core.LatencyComponent, error) {
	return core.MeasureDecomposition(cfg)
}

// RunEnergy performs one Section 4.5 two-route energy subtraction.
func RunEnergy(cfg EnergyConfig) (EnergyPoint, error) { return core.RunEnergy(cfg) }

// FitEnergyModel refits the Section 4.5 energy model to measurements.
func FitEnergyModel(points []EnergyPoint) power.Model { return core.FitEnergyModel(points) }

// PaperEnergyModel is the coefficient set the paper fits to silicon.
var PaperEnergyModel = power.PaperModel

// Analyses.

// VerifyDeadlockFree statically checks a configuration's VC dependency graph
// for cycles (Section 2.5).
func VerifyDeadlockFree(shape Shape) error {
	m, err := topo.NewMachine(shape)
	if err != nil {
		return err
	}
	return deadlock.Verify(route.NewConfig(m), deadlock.Options{})
}

// WorstCaseSearch evaluates every direction-order on-chip routing algorithm
// against all permutation switching demands (Section 2.4) and returns the
// per-order results.
func WorstCaseSearch() []wctraffic.Result {
	return wctraffic.SearchAll(topo.DefaultChip(), wctraffic.DefaultPolicy)
}

// AreaBreakdown evaluates the silicon area model at the default
// configuration (Tables 1 and 2).
func AreaBreakdown() *area.Breakdown { return area.Compute(area.Default()) }

// PackagingPlan tiles a machine onto backplanes and racks (Figure 2).
func PackagingPlan(shape Shape) (*packaging.Plan, error) { return packaging.Build(shape) }

// MulticastTree compiles a destination set into a dimension-order multicast
// tree (Section 2.3, Figure 3).
func MulticastTree(shape Shape, root NodeCoord, dests []NodeEp, order DimOrder) *multicast.Tree {
	return multicast.Build(shape, root, dests, order, 0)
}

// MulticastTable is a compiled multicast group, loadable into
// Config.Multicast for simulation; the machine replicates labeled packets
// at endpoint and channel adapters per the table.
type MulticastTable = multicast.Compiled

// CompileMulticast flattens a tree into the loadable table form.
func CompileMulticast(shape Shape, tree *multicast.Tree) *MulticastTable {
	return tree.Compile(shape)
}

// MulticastSavings returns unicast-minus-multicast torus hops for a
// destination set.
func MulticastSavings(shape Shape, root NodeCoord, dests []NodeEp, order DimOrder) int {
	return multicast.Savings(shape, root, dests, order)
}
