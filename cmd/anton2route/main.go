// Command anton2route runs the Section 2.4 routing analysis: it evaluates
// every direction-order on-chip routing algorithm against all permutation
// switching demands, prints each algorithm's worst-case mesh-channel load,
// the winning orders, and the routes induced by the worst-case permutation
// (Figure 4). It also verifies deadlock freedom of the VC schemes.
//
// Usage:
//
//	anton2route [-policy through|exit|entry|both] [-verify-shape XxYxZ]
package main

import (
	"flag"
	"fmt"
	"os"

	"anton2/internal/deadlock"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/wctraffic"
)

func main() {
	policyFlag := flag.String("policy", "exit", "skip-channel policy: through, exit, entry, or both")
	verifyShape := flag.String("verify-shape", "4x4x4", "torus shape for the deadlock verification")
	flag.Parse()

	var pol wctraffic.Policy
	switch *policyFlag {
	case "through":
		pol = wctraffic.Policy{Through: true}
	case "exit":
		pol = wctraffic.DefaultPolicy
	case "entry":
		pol = wctraffic.Policy{Through: true, Entry: true}
	case "both":
		pol = wctraffic.Policy{Through: true, Entry: true, Exit: true}
	default:
		fmt.Fprintf(os.Stderr, "anton2route: unknown policy %q\n", *policyFlag)
		os.Exit(1)
	}

	chip := topo.DefaultChip()
	fmt.Printf("Worst-case switching-demand analysis (Section 2.4), skip policy %q\n", *policyFlag)
	fmt.Println("==================================================================")
	results := wctraffic.SearchAll(chip, pol)
	best := results[0].WorstLoad
	for _, r := range results {
		if r.WorstLoad < best {
			best = r.WorstLoad
		}
	}
	for _, r := range results {
		mark := " "
		if r.WorstLoad == best {
			mark = "*"
		}
		def := ""
		if r.Order == topo.DefaultDirOrder {
			def = " (default)"
		}
		fmt.Printf("  %s %-12v worst-case mesh load %.1f torus channels%s\n", mark, r.Order, r.WorstLoad, def)
	}
	fmt.Printf("\n  optimum: %.1f torus channels of load on the busiest mesh channel\n", best)
	fmt.Printf("  (each 288 Gb/s mesh channel carries 2 x 89.6 Gb/s with headroom)\n")

	// Figure 4: routes of the worst-case permutation under the default
	// order.
	def := wctraffic.Evaluate(chip, topo.DefaultDirOrder, pol)
	fmt.Printf("\nWorst-case permutation for %v:\n", topo.DefaultDirOrder)
	fmt.Printf("  sources:      X+  X-  Y+  Y-  Z+  Z-\n  destinations:")
	for _, d := range def.WorstPerm {
		fmt.Printf(" %3v", d)
	}
	fmt.Println()
	loads := wctraffic.Loads(chip, topo.DefaultDirOrder, pol, def.WorstPerm)
	fmt.Println("\nMesh channels loaded by the worst-case permutation (Figure 4):")
	for i, l := range loads {
		ch := &chip.IntraChans[i]
		if l >= 2 && ch.From.Kind == topo.LocRouter && ch.To.Kind == topo.LocRouter {
			fmt.Printf("  %-20s %.1f torus channels\n", ch.Name, l)
		}
	}

	// Deadlock verification.
	shape, err := topo.ParseShape(*verifyShape)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nDeadlock verification on %v (Section 2.5)\n", shape)
	fmt.Println("==========================================")
	// Every registered strategy, then the deliberately broken no-dateline
	// scheme (never registered) to show the analyzer has teeth.
	var schemes []route.Scheme
	for _, s := range route.Strategies() {
		schemes = append(schemes, s)
	}
	for _, s := range append(schemes, route.NoDatelineScheme{}) {
		m := topo.MustMachine(shape)
		cfg := route.NewConfig(m)
		cfg.Scheme = s
		err := deadlock.Verify(cfg, deadlock.Options{})
		verdict := "deadlock-free"
		if err != nil {
			verdict = "CYCLIC (expected for broken schemes)"
		}
		fmt.Printf("  %-20s T-group VCs per class: %d, M-group: %d -> %s\n",
			s.Name(), s.TorusVCs(), s.MeshVCs(), verdict)
	}
}
