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

// ChromeTraceFile is the Chrome trace_event JSON object format — load the
// file in Perfetto (ui.perfetto.dev) or chrome://tracing.
type ChromeTraceFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeEvent is one trace_event entry. Only the fields this exporter uses
// are modeled: "X" complete events carry ts+dur, "M" metadata events carry a
// name argument. Timestamps are microseconds.
type ChromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"`
	Dur  float64     `json:"dur"`
	PID  int         `json:"pid"`
	TID  uint64      `json:"tid"`
	Args *ChromeArgs `json:"args,omitempty"`
}

// ChromeArgs is the deterministic argument payload (a struct, not a map, so
// the JSON key order is fixed for golden tests).
type ChromeArgs struct {
	Name  string `json:"name,omitempty"`
	Cycle uint64 `json:"cycle,omitempty"`
}

// ChromeTrace converts captured packet traces into Chrome trace_event JSON.
// Each packet becomes one thread (tid = its trace ID) of a single "anton2"
// process: an enclosing "lifetime" slice from injection to delivery, with
// one nested slice per hop whose duration runs to the next tracepoint.
// cyclePS is the cycle time in picoseconds.
func ChromeTrace(traces []PacketTrace, cyclePS float64) *ChromeTraceFile {
	us := func(cycle uint64) float64 { return float64(cycle) * cyclePS / 1e6 }
	f := &ChromeTraceFile{DisplayTimeUnit: "ns"}
	f.TraceEvents = append(f.TraceEvents, ChromeEvent{
		Name: "process_name", Ph: "M", Args: &ChromeArgs{Name: "anton2"},
	})
	for _, t := range traces {
		f.TraceEvents = append(f.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", TID: t.ID,
			Args: &ChromeArgs{Name: "pkt " + t.Src + " -> " + t.Dst},
		})
		f.TraceEvents = append(f.TraceEvents, ChromeEvent{
			Name: "lifetime", Cat: "packet", Ph: "X",
			TS: us(t.InjectedAt), Dur: us(t.DeliveredAt) - us(t.InjectedAt),
			TID: t.ID, Args: &ChromeArgs{Cycle: t.InjectedAt},
		})
		for i, ev := range t.Events {
			end := t.DeliveredAt
			if i+1 < len(t.Events) {
				end = t.Events[i+1].Cycle
			}
			if end < ev.Cycle {
				end = ev.Cycle
			}
			f.TraceEvents = append(f.TraceEvents, ChromeEvent{
				Name: ev.Stage, Cat: "hop", Ph: "X",
				TS: us(ev.Cycle), Dur: us(end) - us(ev.Cycle),
				TID: t.ID, Args: &ChromeArgs{Cycle: ev.Cycle},
			})
		}
	}
	return f
}
