// Quickstart: build a small Anton 2 machine, run a saturated burst of
// uniform random traffic through it, and verify the configuration is
// deadlock-free.
package main

import (
	"fmt"
	"log"

	"anton2/internal/core"
	"anton2/internal/deadlock"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

func main() {
	// A 4x4x2 torus: 32 ASICs, each with a 4x4 on-chip mesh, 23 endpoint
	// adapters, and 12 torus-channel adapters (two slices per direction).
	shape := topo.Shape3(4, 4, 2)
	cfg := machine.DefaultConfig(shape)

	// Statically verify the VC promotion scheme has no cyclic channel
	// dependencies (Section 2.5 of the paper).
	if err := deadlock.Verify(route.NewConfig(topo.MustMachine(shape))); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v with the Anton n+1-VC scheme: deadlock-free\n", shape)

	// Every core sends a batch of 64 packets to uniformly random remote
	// cores; routes randomize over 6 dimension orders and 2 torus slices.
	res, err := core.RunThroughput(core.ThroughputConfig{
		Machine: cfg,
		Pattern: traffic.Uniform{},
		Batch:   64,
	})
	if err != nil {
		log.Fatal(err)
	}

	packets := shape.NumNodes() * 16 * 64
	fmt.Printf("delivered %d packets in %d cycles (%.2f us at 1.5 GHz)\n",
		packets, res.Cycles, machine.CyclesToNS(float64(res.Cycles))/1000)
	fmt.Printf("normalized throughput %.2f, peak torus utilization %.0f%%, fairness %.3f\n",
		res.Normalized, 100*res.MaxUtilization, res.Fairness)
}
