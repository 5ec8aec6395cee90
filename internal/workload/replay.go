package workload

import (
	"fmt"

	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
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
		inject := func() (uint64, uint64, error) {
			now := m.Engine.Now()
			var injected, expected uint64
			for _, e := range group {
				if e.Cycle != now {
					return 0, 0, fmt.Errorf("workload: replay diverged: %s phase (timestep %d) event recorded at cycle %d, fabric quiesced at %d (machine config mismatch?)",
						PhaseName(ph), ts, e.Cycle, now)
				}
				src := topo.NodeEp{Node: e.SrcNode, Ep: e.SrcEp}
				switch e.Kind {
				case trace.KindUnicast:
					ord, ok := trace.ParseDimOrder(e.Order)
					if !ok {
						return 0, 0, fmt.Errorf("workload: replay: unknown dimension order %q", e.Order)
					}
					c := route.Choices{Order: ord, Slice: uint8(e.Slice), Ties: e.Ties}
					p := m.MakePacket(src, topo.NodeEp{Node: e.DstNode, Ep: e.DstEp}, c, route.Class(e.Class), 0, uint8(e.Size))
					m.Endpoint(src).Inject(p)
					injected++
					expected++
				case trace.KindMulticast:
					if m.Cfg.Multicast[e.Group] == nil {
						return 0, 0, fmt.Errorf("workload: replay: multicast group %d not loaded (rebuild the machine with the trace workload's Tables)", e.Group)
					}
					expected += uint64(m.InjectMulticast(src, e.Group, route.Class(e.Class), 0))
					injected++
				default:
					return 0, 0, fmt.Errorf("workload: replay: unknown event kind %q", e.Kind)
				}
			}
			return injected, expected, nil
		}
		start := m.Engine.Now()
		before := m.Delivered()
		injected, expected, err := inject()
		if err != nil {
			return Result{}, err
		}
		pr, err := finishPhase(m, ts, ph, maxPhaseCycles, before, injected, expected, start)
		if err != nil {
			return Result{}, err
		}
		res.Phases = append(res.Phases, pr)
	}
	res.finish()
	return res, nil
}
