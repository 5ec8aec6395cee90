package exp

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins a pprof CPU profile of the process (when cpuprofile is
// set) and returns a stop function that finishes it and writes the heap
// profile (when memprofile is set); run stop before the process exits or the
// profiles are truncated. Heap-profile failures are reported on stderr.
func StartProfiles(cpuprofile, memprofile string, stderr io.Writer) (stop func(), err error) {
	var stops []func()
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if memprofile != "" {
		stops = append(stops, func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
		})
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}, nil
}
