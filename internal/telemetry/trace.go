package telemetry

import "anton2/internal/packet"

// PacketTrace is one packet's captured lifecycle: the raw tracepoint stream
// plus injection/delivery bounds. ID is the trace's 1-based injection ordinal
// among the packets the collector traced.
type PacketTrace struct {
	ID          uint64              `json:"id"`
	Src         string              `json:"src"`
	Dst         string              `json:"dst"`
	InjectedAt  uint64              `json:"injected_at"`
	DeliveredAt uint64              `json:"delivered_at"`
	Events      []packet.TraceEvent `json:"events"`
}

// chromeTraceFile is the Chrome trace_event JSON object format — load the
// file in Perfetto (ui.perfetto.dev) or chrome://tracing.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEvent is one trace_event entry. Only the fields this exporter uses
// are modeled: "X" complete events carry ts+dur, "M" metadata events carry a
// name argument. Timestamps are microseconds.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"`
	Dur  float64     `json:"dur"`
	PID  int         `json:"pid"`
	TID  uint64      `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs is the deterministic argument payload (a struct, not a map, so
// the JSON key order is fixed for golden tests).
type chromeArgs struct {
	Name  string `json:"name,omitempty"`
	Cycle uint64 `json:"cycle,omitempty"`
}

// chromeTrace converts captured packet traces into Chrome trace_event JSON.
// Each packet becomes one thread (tid = its trace ID) of a single "anton2"
// process: an enclosing "lifetime" slice from injection to delivery, with
// one nested slice per hop whose duration runs to the next tracepoint.
// cyclePS is the cycle time in picoseconds.
func chromeTrace(traces []PacketTrace, cyclePS float64) *chromeTraceFile {
	const pid = 0 // the one process
	us := func(cycle uint64) float64 { return float64(cycle) * cyclePS / 1e6 }
	f := &chromeTraceFile{DisplayTimeUnit: "ns"}
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: pid, Args: &chromeArgs{Name: "anton2"},
	})
	for _, t := range traces {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: t.ID,
			Args: &chromeArgs{Name: "pkt " + t.Src + " -> " + t.Dst},
		})
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "lifetime", Cat: "packet", Ph: "X",
			TS: us(t.InjectedAt), Dur: us(t.DeliveredAt) - us(t.InjectedAt),
			PID: pid, TID: t.ID, Args: &chromeArgs{Cycle: t.InjectedAt},
		})
		for i, ev := range t.Events {
			end := t.DeliveredAt
			if i+1 < len(t.Events) {
				end = t.Events[i+1].Cycle
			}
			if end < ev.Cycle {
				end = ev.Cycle
			}
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: ev.Stage, Cat: "hop", Ph: "X",
				TS: us(ev.Cycle), Dur: us(end) - us(ev.Cycle),
				PID: pid, TID: t.ID, Args: &chromeArgs{Cycle: ev.Cycle},
			})
		}
	}
	return f
}
