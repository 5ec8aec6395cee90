// saturation demonstrates the paper's central performance claim (Section 3,
// Figures 9 and 10): locally fair round-robin arbitration loses throughput
// and fairness when the network is pushed beyond saturation, while
// inverse-weighted arbiters — programmed with precomputed per-pattern
// loads — restore equality of service.
package main

import (
	"fmt"
	"log"

	"anton2/internal/core"
	"anton2/internal/machine"
	"anton2/internal/topo"
)

func main() {
	shape := topo.Shape3(8, 4, 2)
	fmt.Printf("flooding a %v machine with tornado traffic (every core sends k/2-1 hops away)\n\n", shape)

	// Tornado is adversarial: all packets circle the ring in one
	// direction, so through-traffic merges with injections at every hop.
	for _, mode := range []core.WeightMode{core.WeightsNone, core.WeightsForward, core.WeightsBoth} {
		res, err := core.RunBlend(core.BlendConfig{
			Machine:         machine.DefaultConfig(shape),
			ForwardFraction: 1.0, // pure tornado
			Weights:         mode,
			Batch:           128,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8v arbiter weights: normalized throughput %.3f (%d cycles)\n",
			mode, res.Normalized, res.Cycles)
	}

	fmt.Println("\nblending tornado with reverse tornado (packets labeled by pattern):")
	for _, f := range []float64{0, 0.5, 1} {
		res, err := core.RunBlend(core.BlendConfig{
			Machine:         machine.DefaultConfig(shape),
			ForwardFraction: f,
			Weights:         core.WeightsBoth,
			Batch:           128,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  tornado fraction %.1f: normalized throughput %.3f\n", f, res.Normalized)
	}
	fmt.Println("\nwith both weight sets programmed, the arbiters maintain equality of")
	fmt.Println("service across any blend without knowing the mixing coefficients (Section 3.2)")
}
