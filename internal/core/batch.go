package core

import (
	"fmt"
	"math/rand"

	"anton2/internal/ckpt"
	"anton2/internal/machine"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// This file is the one batch driver. Every saturation result of Section 4 —
// fig9, fig10, faultsweep and routecompare points — is the same measurement:
// each core sends a batch, the clock stops at the last delivery, the rate is
// normalized by an analytic saturation rate. A family states what differs as
// a batchPoint; runBatch owns the rest, checkpointing included.

// batchPoint is what a family supplies for one batch measurement.
type batchPoint struct {
	// machine and weights are BuildMachine's arguments.
	machine machine.Config
	weights []traffic.Pattern
	// stream prefixes the per-core RNG stream names ("tp", "blend", "fault",
	// "rc"). Frozen: every pinned result depends on them.
	stream string
	batch  int // packets each core sends
	// draw picks one packet's destination and weight-pattern label on the
	// source core's stream.
	draw func(tm *topo.Machine, src topo.NodeEp, rng *rand.Rand) (dst topo.NodeEp, patternID uint8)
	// maxCycles bounds the run (see cycleBudget), counted from cycle 0 however
	// often it is resumed.
	maxCycles uint64
	latencies bool   // collect every packet's injection-to-delivery latency
	tag       string // the point's canonical spec: a checkpoint under another tag is ignored
	label     string // names the run in its errors: "throughput run (uniform, batch 32)"
}

// batchProgress is what runBatch accumulates and, as JSON, the driver section
// of a batch checkpoint: per-core injection counts in (node, core) order
// (pinning each RNG stream's position), per-endpoint outstanding deliveries,
// per-core completion times, and — when asked for — one latency per packet
// delivered so far. fault, no part of a checkpoint, is the fault layer's
// status at the last delivery (nil without one).
type batchProgress struct {
	Sent      []int     `json:"sent"`
	Remaining []int     `json:"remaining"`
	Finished  []float64 `json:"finished"`
	Latencies []float64 `json:"latencies,omitempty"`
	fault     *machine.FaultStatus
}

// runBatch executes one batch measurement and returns the machine it ran on,
// the cycle the last packet arrived at, and what it accumulated. With rc
// enabled the machine and the accumulator are persisted every rc.Every cycles;
// when a usable checkpoint exists, the run restores it, fast-forwards every
// per-core RNG stream past the packets already injected, and finishes
// bit-identically to an uninterrupted run. A zero rc installs no observer and
// costs nothing.
func runBatch(pt batchPoint, rc ckpt.RunConfig) (*machine.Machine, uint64, *batchProgress, error) {
	m, _, err := BuildMachine(pt.machine, pt.weights...)
	if err != nil {
		return nil, 0, nil, err
	}
	tm := m.Topo
	cores := tm.Chip.CoreEndpoints()
	numCores := tm.NumNodes() * len(cores)
	total := numCores * pt.batch

	var acc batchProgress
	resumed := false
	if rc.Enabled() {
		if m, resumed, err = resumeRunCkpt(m, rc, pt.tag, &acc, func() bool {
			return len(acc.Sent) == numCores && len(acc.Remaining) == tm.NumEndpointsTotal()
		}, pt.machine, pt.weights...); err != nil {
			return nil, 0, nil, err
		}
	}
	if !resumed {
		acc = batchProgress{
			Sent:      make([]int, numCores),
			Remaining: make([]int, tm.NumEndpointsTotal()),
			Finished:  make([]float64, 0, numCores),
		}
		for n := 0; n < tm.NumNodes(); n++ {
			for _, ep := range cores {
				acc.Remaining[tm.EndpointIndex(topo.NodeEp{Node: n, Ep: ep})] = pt.batch
			}
		}
	}
	injectBatches(m, pt.stream, pt.batch, acc.Sent, pt.draw)

	onDeliver := func(p *packet.Packet, now uint64) bool {
		i := tm.EndpointIndex(p.Src)
		acc.Remaining[i]--
		if acc.Remaining[i] == 0 {
			acc.Finished = append(acc.Finished, float64(now))
		}
		return false
	}
	if pt.latencies {
		acc.Latencies = append(make([]float64, 0, total), acc.Latencies...)
		count := onDeliver
		onDeliver = func(p *packet.Packet, now uint64) bool {
			acc.Latencies = append(acc.Latencies, float64(now-p.InjectedAt))
			return count(p, now)
		}
	}
	for n := 0; n < tm.NumNodes(); n++ {
		for ep := 0; ep < topo.NumEndpoints; ep++ {
			m.Endpoint(topo.NodeEp{Node: n, Ep: ep}).OnDeliver = onDeliver
		}
	}

	if rc.Enabled() {
		observeCkpt(m, rc, pt.tag, func() any { return &acc })
	}
	// RunUntilDelivered counts its budget from the current clock, which on a
	// resumed machine is the checkpoint's: hand it what is left, so a point
	// that runs out of budget does so at the same cycle however it got there.
	end, err := m.RunUntilDelivered(uint64(total), pt.maxCycles-min(pt.maxCycles, m.Engine.Now()))
	// Read before FinishChecks, whose drain under Check steps the fault
	// layer on.
	acc.fault = m.FaultStatus()
	if err == nil {
		err = m.FinishChecks()
	}
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: %s: %w", pt.label, err)
	}
	rc.Discard()
	return m, end, &acc, nil
}

// injectBatches makes every core endpoint, in (node, core) order, the source
// of batch request packets: each packet's destination and weight-pattern
// label come from draw, then its route choices from MakeRandomPacket, all on
// the core's own "<stream>-src-<node>-<ep>" RNG stream. sent counts, in the
// same order, the packets each core has already injected — all zero for a
// fresh run; a resumed run passes its checkpointed counts and each stream is
// fast-forwarded past exactly those packets' draws. A stream is seeded, and
// fast-forwarded, on its source's first call, which runs on the shard worker
// ticking the endpoint in the run's first cycle, rather than all of them
// serially before it; the draws are the same either way.
func injectBatches(m *machine.Machine, stream string, batch int, sent []int,
	draw func(tm *topo.Machine, src topo.NodeEp, rng *rand.Rand) (dst topo.NodeEp, patternID uint8)) {
	tm := m.Topo
	i := 0
	for n := 0; n < tm.NumNodes(); n++ {
		for _, ep := range tm.Chip.CoreEndpoints() {
			src := topo.NodeEp{Node: n, Ep: ep}
			count := &sent[i]
			var rng *rand.Rand
			m.Endpoint(src).Source = func() *packet.Packet {
				if *count >= batch {
					return nil
				}
				if rng == nil {
					rng = sim.NewRNG(m.Cfg.Seed, fmt.Sprintf("%s-src-%d-%d", stream, src.Node, src.Ep))
					for k := 0; k < *count; k++ {
						draw(tm, src, rng)
						route.RandomChoices(rng)
					}
				}
				*count++
				dst, pid := draw(tm, src, rng)
				return m.MakeRandomPacket(src, dst, route.ClassRequest, pid, rng)
			}
			i++
		}
	}
}
