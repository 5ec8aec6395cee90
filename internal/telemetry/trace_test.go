package telemetry_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/")

// captureTrace runs one fully pinned packet — node 0 to its +X neighbor with
// fixed routing choices on a 2x2x2 machine — under the collector, which
// traces it as the first packet injected at node 0, and returns the Chrome
// trace_event file the collector writes. Everything about the run is
// deterministic, so the output can be byte-compared against a golden file.
func captureTrace(t *testing.T) []byte {
	t.Helper()
	cfg := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	var report *telemetry.Report
	dir := t.TempDir()
	cfg.Telemetry = &telemetry.Options{Dir: dir, Name: "run", Sink: func(r *telemetry.Report) { report = r }}
	m := machine.MustNew(cfg)
	tm := m.Topo
	ep := tm.Chip.CoreEndpoints()[0]
	src := topo.NodeEp{Node: 0, Ep: ep}
	dst := topo.NodeEp{
		Node: tm.Shape.NodeID(tm.Shape.Neighbor(tm.Shape.Coord(0), topo.XPos)),
		Ep:   ep,
	}
	choices := route.Choices{Order: topo.AllDimOrders[0], Ties: [topo.NumDims]int8{1, 1, 1}}
	m.Endpoint(src).Inject(m.MakePacket(src, dst, choices, route.ClassRequest, 0, 1))
	if _, err := m.RunUntilDelivered(1, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := m.FinishChecks(); err != nil {
		t.Fatal(err)
	}
	if report == nil || len(report.Traces) != 1 {
		t.Fatalf("expected exactly one packet trace, got report %+v", report)
	}
	if tr := report.Traces[0]; len(tr.Events) == 0 || tr.DeliveredAt <= tr.InjectedAt {
		t.Fatalf("degenerate trace: %+v", tr)
	}
	got, err := os.ReadFile(filepath.Join(dir, "run.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestChromeTraceGolden pins the exporter's exact JSON: a single
// nearest-neighbor packet's trace must not drift, because any change to
// tracepoint placement, timestamp scaling, or serialization shows up in
// Perfetto renderings.
func TestChromeTraceGolden(t *testing.T) {
	got := captureTrace(t)
	golden := filepath.Join("testdata", "golden", "trace.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden trace drift:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestChromeTraceWellFormed validates the exporter output against the
// trace_event schema subset Perfetto loads: a top-level traceEvents array
// whose entries are either "M" metadata events carrying a name argument or
// "X" complete events with non-negative microsecond ts/dur, with every hop
// slice nested inside its packet's lifetime slice.
func TestChromeTraceWellFormed(t *testing.T) {
	raw := captureTrace(t)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("no traceEvents key in trace JSON")
	}
	var events []map[string]any
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		t.Fatal(err)
	}
	// At minimum: process metadata, thread metadata, lifetime, one hop.
	if len(events) < 4 {
		t.Fatalf("only %d trace events", len(events))
	}
	var lifetime map[string]any
	var hops []map[string]any
	for i, ev := range events {
		name, _ := ev["name"].(string)
		if name == "" {
			t.Fatalf("event %d has no name: %v", i, ev)
		}
		switch ph, _ := ev["ph"].(string); ph {
		case "M":
			args, _ := ev["args"].(map[string]any)
			if s, _ := args["name"].(string); s == "" {
				t.Errorf("metadata event %q has no args.name", name)
			}
		case "X":
			ts, tok := ev["ts"].(float64)
			dur, dok := ev["dur"].(float64)
			if !tok || !dok || ts < 0 || dur < 0 {
				t.Errorf("complete event %q has bad ts/dur: %v", name, ev)
			}
			if name == "lifetime" {
				lifetime = ev
			} else {
				hops = append(hops, ev)
			}
		default:
			t.Errorf("event %d (%q): unsupported phase %q", i, name, ph)
		}
	}
	if lifetime == nil || len(hops) == 0 {
		t.Fatalf("missing lifetime or hop slices (lifetime %v, %d hops)", lifetime, len(hops))
	}
	start := lifetime["ts"].(float64)
	end := start + lifetime["dur"].(float64)
	prev := start
	for _, h := range hops {
		ts := h["ts"].(float64)
		if ts < prev {
			t.Errorf("hop %q at ts %g out of order (previous %g)", h["name"], ts, prev)
		}
		if ts < start || ts+h["dur"].(float64) > end {
			t.Errorf("hop %q [%g,%g] escapes lifetime [%g,%g]",
				h["name"], ts, ts+h["dur"].(float64), start, end)
		}
		prev = ts
	}
}
