// pingpong measures software-to-software one-way message latency with the
// paper's Figure 11 methodology: a 16-byte remote write from core A
// dispatches a handler on core B, which writes back; one-way latency is
// half the round trip and includes software and synchronization overheads.
package main

import (
	"fmt"
	"log"

	"anton2/internal/core"
	"anton2/internal/topo"
)

func main() {
	shape := topo.Shape3(4, 4, 4)
	cfg := core.DefaultLatencyConfig(shape)

	res, err := core.RunLatency(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("one-way latency on %v (16-byte payloads):\n\n", shape)
	fmt.Printf("  %5s  %10s\n", "hops", "latency")
	for _, p := range res.Points {
		fmt.Printf("  %5d  %7.1f ns\n", p.Hops, p.MeanNS)
	}
	fmt.Printf("\nlinear fit: %.1f ns fixed + %.1f ns per inter-node hop (r2 = %.4f)\n",
		res.InterceptNS, res.SlopeNS, res.R2)
	fmt.Printf("minimum nearest-neighbor latency: %.1f ns\n", res.MinNS)
	fmt.Printf("(the paper measures 80.7 ns + 39.1 ns/hop, minimum 99 ns, on real silicon)\n")

	fmt.Println("\nminimum-latency budget (Figure 12):")
	var total float64
	for _, c := range core.DecomposeMinLatency(cfg) {
		fmt.Printf("  %-30s %5.1f ns\n", c.Name, c.NS)
		total += c.NS
	}
	fmt.Printf("  %-30s %5.1f ns\n", "total", total)
}
