package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{4, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {999, 95},
		{1000, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99},
	} {
		if got := highPercentile(c.n); got != c.want {
			t.Errorf("highPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{40, 10, 30, 20})
	if s.N != 4 || s.P50 != 25 || s.P25 != 17.5 || s.P75 != 32.5 || s.HiP != 0 {
		t.Errorf("summarize of four values = %+v", s)
	}
	if !strings.Contains(s.String(), "n=4") || !strings.Contains(s.String(), "no tail percentile") {
		t.Errorf("summary must always carry the sample count and say when it has no tail: %q", s)
	}
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	s = summarize(xs)
	if s.HiP != 90 || s.Hi < 90 || s.Hi > 91 || s.P50 != 50.5 {
		t.Errorf("summarize of 1..100 = %+v", s)
	}
}

func span(id, parent int, start, end int64) Span {
	return Span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []Span
		want  time.Duration
	}{
		{"no children", []Span{span(1, 0, 0, 100)}, 100},
		{"disjoint children", []Span{span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 50, 80)}, 60},
		// Two clients inside one phase: [10,40] and [30,60] cover 50, not 60.
		{"overlapping children", []Span{span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60), span(4, 1, 70, 80)}, 40},
		{"contained child", []Span{span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30)}, 20},
		{"out of order", []Span{span(3, 1, 50, 80), span(1, 0, 0, 100), span(2, 1, 10, 20)}, 60},
		{"grandchildren do not count", []Span{span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 2, 12, 18)}, 90},
		// Re-enacted steps run after the driver call they explain.
		{"re-enacted children", []Span{span(1, 0, 0, 100), span(2, 1, 200, 230), span(3, 1, 230, 260)}, 40},
		{"children longer than parent", []Span{span(1, 0, 0, 100), span(2, 1, 200, 320)}, -20},
	} {
		if got := selfTime(c.spans, 1); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerNilRecordsNothingButStillTimes(t *testing.T) {
	var tr *Tracer
	ran := false
	d := tr.Do(0, "x", "", 1, func() { ran = true; time.Sleep(time.Millisecond) })
	if !ran || d < time.Millisecond {
		t.Errorf("nil tracer: ran=%v d=%v", ran, d)
	}
	if id := tr.Begin(0, "x", ""); id != 0 || tr.End(id, 0) != 0 || tr.Select("x", "") != nil {
		t.Error("nil tracer must hand out span id 0 and select nothing")
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.Begin(0, "root", "")
	tr.Do(root, "step", "a", 3, func() {})
	tr.Do(root, "step", "b", 4, func() {})
	added := tr.Add(root, "timed-elsewhere", "", 5*time.Millisecond, 7)
	tr.End(root, 0)
	if got := len(tr.Select("step", "a")); got != 1 {
		t.Errorf("Select(step, a) = %d spans, want 1", got)
	}
	if got := tr.Select("step", "b"); len(got) != 1 || got[0].N != 4 || got[0].Parent != root {
		t.Errorf("Select(step, b) = %+v", got)
	}
	if got := tr.Select("timed-elsewhere", ""); len(got) != 1 || got[0].ID != added || got[0].dur() != 5*time.Millisecond {
		t.Errorf("Add = %+v", got)
	}
	if !tr.HasChildren(root) || tr.HasChildren(added) {
		t.Error("HasChildren")
	}
	path := t.TempDir() + "/spans.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) != 4 {
		t.Fatalf("spans file: %v, %d spans", err, len(spans))
	}
	for _, k := range []string{"id", "parent", "name", "start_ns", "end_ns"} {
		if _, ok := spans[1][k]; !ok {
			t.Errorf("span lacks %q: %v", k, spans[1])
		}
	}
}

func TestDiffJSON(t *testing.T) {
	pinned := `{"a":{"cycles":815,"normalized":0.1264408197553473},"list":[1,2,3],"s":"x"}`
	for _, c := range []struct {
		name, got string
		want      []string
	}{
		{"equal, keys reordered", `{"s":"x","list":[1,2,3],"a":{"normalized":0.1264408197553473,"cycles":815}}`, nil},
		{"last digit", `{"a":{"cycles":815,"normalized":0.1264408197553474},"list":[1,2,3],"s":"x"}`, []string{"$.a.normalized"}},
		{"integer", `{"a":{"cycles":816,"normalized":0.1264408197553473},"list":[1,2,3],"s":"x"}`, []string{"$.a.cycles"}},
		{"missing and extra key", `{"a":{"cycles":815},"list":[1,2,3],"s":"x","new":1}`, []string{"$.a.normalized", "$.new"}},
		{"array element", `{"a":{"cycles":815,"normalized":0.1264408197553473},"list":[1,9,3],"s":"x"}`, []string{"$.list[1]"}},
		{"array length", `{"a":{"cycles":815,"normalized":0.1264408197553473},"list":[1,2],"s":"x"}`, []string{"$.list"}},
		{"kind", `{"a":7,"list":[1,2,3],"s":"x"}`, []string{"$.a"}},
	} {
		diffs, err := diffJSON([]byte(pinned), []byte(c.got))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(diffs) != len(c.want) {
			t.Errorf("%s: diffs %q, want paths %q", c.name, diffs, c.want)
			continue
		}
		for i, d := range diffs {
			if !strings.HasPrefix(d, c.want[i]+":") {
				t.Errorf("%s: diff %q, want path %q", c.name, d, c.want[i])
			}
		}
	}
	if _, err := diffJSON([]byte(`{`), []byte(`{}`)); err == nil {
		t.Error("malformed pins must be an error")
	}
}

func TestCollectAndResultSchema(t *testing.T) {
	defs := []metricDef{{Name: "run_wall_ms", Unit: "ms"}, {Name: "setup_s", Unit: "s"}}
	if _, err := collect(defs, map[string]float64{"run_wall_ms": 1}, 1, 0); err == nil {
		t.Error("a declared metric that was not measured must be an error")
	}
	zero := 0.0
	if _, err := collect(defs, map[string]float64{"run_wall_ms": 1 / zero, "setup_s": 1}, 1, 0); err == nil {
		t.Error("an infinite metric must be an error")
	}
	res, err := collect(defs, map[string]float64{"run_wall_ms": 1.2034, "setup_s": 0.8127, "not_declared": 9}, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 1000 || res.Failed != 2 {
		t.Errorf("result = %+v", res)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":false,"attempted":1000,"failed":2,"metrics":{"run_wall_ms":{"value":1.2034,"unit":"ms"},"setup_s":{"value":0.8127,"unit":"s"}}}`
	if string(b) != want {
		t.Errorf("result line\n got %s\nwant %s", b, want)
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json and the tables the program
// reports from equal, so neither can drift from the other.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n   go %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
}

// TestServeRequests checks the generated serve_mix inputs without simulating
// anything: every spec validates, all are distinct, and the seed decides them.
func TestServeRequests(t *testing.T) {
	ids := func(seed uint64) map[string]bool {
		out := map[string]bool{}
		for _, q := range serveRequests(seed) {
			id, err := q.ID()
			if err != nil {
				t.Fatalf("seed %d: generated spec does not validate: %v", seed, err)
			}
			out[id] = true
		}
		return out
	}
	a, again, b := ids(1), ids(1), ids(2)
	if len(a) < 160 || len(a) != len(serveRequests(1)) {
		t.Errorf("seed 1: %d distinct specs of %d generated, want at least 160 and no duplicates", len(a), len(serveRequests(1)))
	}
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed must generate the same specs")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds must generate different specs")
	}
	for _, q := range probeRequests() {
		if err := q.Validate(); err != nil {
			t.Errorf("probe spec: %v", err)
		}
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	pins := map[string]json.RawMessage{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		if _, ok := pins[name]; !ok {
			t.Errorf("pins.json has no section for %s", name)
		}
	}
}
