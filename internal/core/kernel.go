package core

import (
	"fmt"
	"time"

	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/topo"
)

// This file is the cycle-kernel probe benchmark/ times: it measures the
// simulator's own speed (simulated cycles per wall-clock second), not any
// property of the modeled network, on a sparse trickle where almost every
// component is idle almost every cycle (the active-set scheduler's best case
// — paper-scale machines spend most of their area waiting). The workload is
// deterministic, so every engine configuration simulates the exact same
// cycle count and cycles/sec ratios are apples-to-apples.

// KernelWorkload selects the traffic shape for the cycle-kernel benchmark.
type KernelWorkload int

// KernelSparse trickles 16 packets from each of 8 endpoints spread across the
// torus (fewer on machines with fewer nodes) to its antipode, one every 512
// cycles.
const KernelSparse KernelWorkload = iota

func (w KernelWorkload) String() string { return "sparse" }

// KernelConfig describes one cycle-kernel measurement.
type KernelConfig struct {
	Machine  machine.Config
	Workload KernelWorkload
}

// KernelResult is one measured kernel point.
type KernelResult struct {
	Shape    string  `json:"shape"`
	Engine   string  `json:"engine"`
	Shards   int     `json:"shards,omitempty"`
	Workload string  `json:"workload"`
	Cycles   uint64  `json:"cycles"`
	Packets  uint64  `json:"packets"`
	WallSec  float64 `json:"wall_sec"`
	// CyclesPerSec is the headline: simulated cycles per wall second.
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// engineName renders a config's engine selection for artifacts.
func engineName(cfg machine.Config) string {
	name := cfg.Engine
	if name == "" {
		name = machine.EngineActive
	}
	if cfg.Shards > 1 {
		name = fmt.Sprintf("%s-sharded%d", name, cfg.Shards)
	}
	return name
}

// RunKernel builds a machine, loads the workload, and measures wall time
// over the simulation run only (construction and injection excluded).
func RunKernel(cfg KernelConfig) (KernelResult, error) {
	if cfg.Workload != KernelSparse {
		return KernelResult{}, fmt.Errorf("core: unknown kernel workload %d", cfg.Workload)
	}
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return KernelResult{}, err
	}
	tm := m.Topo
	cores := tm.Chip.CoreEndpoints()

	const per, gap = 16, 512
	senders := min(8, tm.NumNodes())
	// Spread senders across the torus; each targets the antipodal node,
	// maximizing hops (and the set of briefly-busy routers).
	stride := tm.NumNodes() / senders
	var total uint64
	for i := 0; i < senders; i++ {
		srcNode := i * stride
		c := tm.Shape.Coord(srcNode)
		anti := tm.Shape.Wrap(topo.NodeCoord{
			X: c.X + tm.Shape.K[topo.DimX]/2,
			Y: c.Y + tm.Shape.K[topo.DimY]/2,
			Z: c.Z + tm.Shape.K[topo.DimZ]/2,
		})
		src := topo.NodeEp{Node: srcNode, Ep: cores[0]}
		dst := topo.NodeEp{Node: tm.Shape.NodeID(anti), Ep: cores[len(cores)-1]}
		rng := sim.NewRNG(cfg.Machine.Seed, fmt.Sprintf("kernel-sparse-%d", i))
		for j := 0; j < per; j++ {
			p := m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng)
			p.NotBefore = 1 + uint64(j)*gap
			m.Endpoint(src).Inject(p)
			total++
		}
	}

	start := time.Now()
	end, err := m.RunUntilDelivered(total, 8_000_000)
	wall := time.Since(start).Seconds()
	if err != nil {
		return KernelResult{}, fmt.Errorf("core: kernel run (%s): %w", cfg.Workload, err)
	}
	return KernelResult{
		Shape:        fmt.Sprintf("%dx%dx%d", tm.Shape.K[0], tm.Shape.K[1], tm.Shape.K[2]),
		Engine:       engineName(cfg.Machine),
		Shards:       cfg.Machine.Shards,
		Workload:     cfg.Workload.String(),
		Cycles:       end,
		Packets:      total,
		WallSec:      wall,
		CyclesPerSec: float64(end) / wall,
	}, nil
}
