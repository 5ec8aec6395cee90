package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"anton2/internal/ckpt"
	"anton2/internal/core"
	"anton2/internal/machine"
)

// mdstepReplayCheck exercises the mdstep family's record/replay guarantee
// after its sweep: the default strategy's point is re-run with traffic capture
// enabled and the trace replayed on a fresh machine, which must reproduce
// every per-phase cycle count exactly (with -json, the capture is written
// alongside the artifacts).
func mdstepReplayCheck(a core.Axes) error {
	mc := machine.DefaultConfig(a.Shape)
	benchFlags(&mc)
	cfg := core.MDStepConfig{Machine: mc, Workload: a.Workload}
	pt, tr, err := core.RunMDStepPointRecorded(cfg, true)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	rep, err := core.ReplayMDStepTrace(cfg, tr)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !reflect.DeepEqual(rep.Phases, pt.Phases) || rep.TotalCycles != pt.TotalCycles {
		return fmt.Errorf("replay diverged from the recorded run: %d cycles vs %d", rep.TotalCycles, pt.TotalCycles)
	}
	fmt.Printf("replay:   %d captured events (%s) replayed to identical per-phase timing, %d cycles\n",
		len(tr.Events), pt.Strategy, rep.TotalCycles)
	if *jsonDir != "" {
		data, err := tr.Encode()
		if err != nil {
			return err
		}
		path := filepath.Join(*jsonDir, "mdstep.trace.jsonl")
		if err := ckpt.AtomicWriteFile(path, data); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mdstep: wrote %s\n", path)
	}
	return nil
}
