package workload

import (
	"fmt"

	"anton2/internal/machine"
	"anton2/internal/trace"
)

// ReplayTrace re-runs a capture on a fresh machine: events are re-injected
// phase by phase in recorded order with their recorded route choices, with
// the same phase-barrier discipline as Run. On a machine built with the same
// config (and the capture's workload Tables loaded), every phase reproduces
// the original's cycle counts exactly — replay asserts this structurally by
// requiring each phase's injections to land on the capture's cycle, and
// errors out on the first divergence instead of reporting skewed times.
//
// Unicast choices recorded by Run are pre strategy-Choose, so replay applies
// the same Choose the original did.
func ReplayTrace(m *machine.Machine, tr *trace.Trace, maxPhaseCycles uint64) (Result, error) {
	if got := m.Topo.Shape.String(); tr.Header.Shape != got {
		return Result{}, fmt.Errorf("workload: trace captured on %s, machine is %s", tr.Header.Shape, got)
	}
	var res Result
	events := tr.Events
	for i := 0; i < len(events); {
		ts, ph := events[i].Timestep, events[i].Phase
		j := i
		for j < len(events) && events[j].Timestep == ts && events[j].Phase == ph {
			j++
		}
		group := events[i:j]
		i = j
		start := m.Engine.Now()
		before := m.Delivered()
		var expected uint64
		for _, e := range group {
			if e.Cycle != start {
				return Result{}, fmt.Errorf("workload: replay diverged: %s phase (timestep %d) event recorded at cycle %d, fabric quiesced at %d (machine config mismatch?)",
					PhaseName(ph), ts, e.Cycle, start)
			}
			in, err := injectionOf(e)
			if err != nil {
				return Result{}, err
			}
			n, err := in.inject(m)
			if err != nil {
				return Result{}, err
			}
			expected += n
		}
		pr, err := finishPhase(m, ts, ph, maxPhaseCycles, before, uint64(len(group)), expected, start)
		if err != nil {
			return Result{}, err
		}
		res.Phases = append(res.Phases, pr)
	}
	res.finish()
	return res, nil
}
