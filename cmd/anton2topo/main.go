// Command anton2topo prints the Anton 2 network topology: the Figure 1
// on-chip layout (routers, endpoint adapters, torus-channel adapters, skip
// channels) and the Figure 2 packaging plan for a machine size.
//
// Usage:
//
//	anton2topo [-shape XxYxZ]
package main

import (
	"flag"
	"fmt"
	"os"

	"anton2/internal/packaging"
	"anton2/internal/topo"
)

func main() {
	shapeFlag := flag.String("shape", "8x8x8", "torus shape KxKxK")
	flag.Parse()

	shape, err := topo.ParseShape(*shapeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	chip := topo.DefaultChip()
	fmt.Println("Anton 2 on-chip network (Figure 1)")
	fmt.Println("==================================")
	fmt.Printf("%d routers in a %dx%d mesh, %d endpoint adapters, %d torus-channel adapters\n\n",
		topo.NumRouters, topo.MeshW, topo.MeshH, topo.NumEndpoints, topo.NumChannelAdapters)

	for v := topo.MeshH - 1; v >= 0; v-- {
		for u := 0; u < topo.MeshW; u++ {
			r := chip.RouterAt(topo.MeshCoord{U: u, V: v})
			var eps, ads int
			for _, p := range r.Ports {
				switch p.Kind {
				case topo.PortEndpoint:
					eps++
				case topo.PortAdapter:
					ads++
				}
			}
			tag := ""
			if r.SkipPort() >= 0 {
				tag = "*"
			}
			fmt.Printf("  R%d,%d%-1s[E:%d C:%d]", u, v, tag, eps, ads)
		}
		fmt.Println()
	}
	fmt.Println("\n  * = skip-channel corner router")

	fmt.Println("\nChannel adapters:")
	for i := 0; i < topo.NumChannelAdapters; i++ {
		a := &chip.Adapters[i]
		fmt.Printf("  C%-5s at %v\n", a.ID, a.Router)
	}
	fmt.Println("\nSkip channels:")
	for _, p := range chip.SkipPairs {
		fmt.Printf("  %v <-> %v\n", p[0], p[1])
	}

	fmt.Printf("\nPackaging plan for %v (Figure 2)\n", shape)
	fmt.Println("================================")
	plan, err := packaging.Build(shape)
	if err != nil {
		fmt.Printf("  %v\n", err)
		return
	}
	fmt.Printf("  %d nodes on %d backplanes (4x4x1 nodecards each) in %d racks\n",
		shape.NumNodes(), plan.NumBackplanes(), plan.NumRacks())
	stats := plan.Stats()
	for _, m := range []packaging.Medium{packaging.BackplaneTrace, packaging.IntraRackCable, packaging.InterRackCable} {
		s := stats[m]
		if s.Links == 0 {
			continue
		}
		example := packaging.Link{Medium: m, LengthCM: s.TotalCM / float64(s.Links)}
		fmt.Printf("  %-18s %5d directed links, mean %.0f cm, latency %d cycles (%.1f ns)\n",
			m, s.Links, s.TotalCM/float64(s.Links), example.LatencyCycles(), example.LatencyNS())
	}
}
