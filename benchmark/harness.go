package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// processStart anchors setup_s: package initialisation runs before main, so
// this is as close to process start as the program itself can observe.
var processStart = time.Now()

// ---- percentiles -----------------------------------------------------------

// percentileLadder lists the percentiles the harness may report above the
// median, lowest first, each with the share of samples beyond it (one in
// oneIn), kept as an integer so the ten-sample rule is exact.
var percentileLadder = []struct {
	p     float64
	oneIn int
}{{75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// highPercentile returns the highest ladder percentile that still has at least
// ten of n samples beyond it, or 0 when even the lowest does not: a tail
// estimated from fewer than ten samples does not repeat between runs.
func highPercentile(n int) float64 {
	best := 0.0
	for _, r := range percentileLadder {
		if n >= 10*r.oneIn {
			best = r.p
		}
	}
	return best
}

// quantile returns the p-th percentile (0..100) of sorted values by linear
// interpolation between order statistics.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is how the harness reports a timed sample set: the median, the
// quartiles, the highest percentile the sample count supports, and the count.
type summary struct {
	N             int
	P25, P50, P75 float64
	HiP, Hi       float64 // HiP == 0: too few samples for any tail percentile
}

func summarize(values []float64) summary {
	s := sorted(values)
	out := summary{N: len(s), P25: quantile(s, 25), P50: quantile(s, 50), P75: quantile(s, 75)}
	if p := highPercentile(len(s)); p > 0 {
		out.HiP, out.Hi = p, quantile(s, p)
	}
	return out
}

func (s summary) String() string {
	tail := "no tail percentile"
	if s.HiP > 0 {
		tail = fmt.Sprintf("p%g %.4g", s.HiP, s.Hi)
	}
	return fmt.Sprintf("median %.4g (quartiles %.4g..%.4g, %s, n=%d)", s.P50, s.P25, s.P75, tail, s.N)
}

func median(values []float64) float64 { return summarize(values).P50 }

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// ---- spans -----------------------------------------------------------------

// Span is one traced interval at a layer boundary. Op qualifies Name (a shape,
// an engine, a cache tier); N is the amount of work the interval covered
// (bytes, ticks, requests) when a rate is derived from it.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: no parent
	Name   string  `json:"name"`
	Op     string  `json:"op,omitempty"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	N      float64 `json:"n,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs take the same code path without the bookkeeping.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(parent int, name, op string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(t.spans)
}

// End closes span id, recording n units of work, and returns its duration.
func (t *Tracer) End(id int, n float64) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.N = now, n
	return s.dur()
}

// Do runs f inside a span and returns f's wall time, measured whether or not
// the tracer is nil.
func (t *Tracer) Do(parent int, name, op string, n float64, f func()) time.Duration {
	id := t.Begin(parent, name, op)
	start := time.Now()
	f()
	d := time.Since(start)
	t.End(id, n)
	return d
}

// Add records a span whose duration was measured elsewhere (inside a driver
// that times its own inner loop), ending now.
func (t *Tracer) Add(parent int, name, op string, d time.Duration, n float64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: now - d.Nanoseconds(), End: now, N: n})
	return len(t.spans)
}

// HasChildren reports whether any span names id as its parent.
func (t *Tracer) HasChildren(id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent == id {
			return true
		}
	}
	return false
}

// Select returns the spans with the given name and op.
func (t *Tracer) Select(name, op string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Name == name && s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is span id's duration minus the time its direct children cover.
// Overlapping children (two clients inside one phase) are merged before their
// length is taken, so concurrent work is not subtracted twice. Children are
// not clipped to the parent's interval: a re-enacted step runs after the
// driver call it explains, and still counts against it in full.
func selfTime(spans []Span, id int) time.Duration {
	var parent Span
	var kids []Span
	for _, s := range spans {
		if s.ID == id {
			parent = s
		}
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered, end int64
	for i, k := range kids {
		if i == 0 || k.Start > end {
			covered += k.End - k.Start
			end = k.End
		} else if k.End > end {
			covered += k.End - end
			end = k.End
		}
	}
	return parent.dur() - time.Duration(covered)
}

// SelfTime is selfTime over the tracer's spans.
func (t *Tracer) SelfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTime(t.spans, id)
}

// WriteFile writes every span as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// breakdown prints where the wall time under span root went: one line per
// (name, op) group of child spans, nested groups indented beneath, and each
// level's self time.
func (t *Tracer) breakdown(root int, title string) {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	total := spans[root-1].dur()
	fmt.Printf("  %s: %.1f ms\n", title, ms(total))
	line := func(indent, key string, d time.Duration, n int) {
		count := ""
		if n > 0 {
			count = fmt.Sprintf("  (%d spans)", n)
		}
		fmt.Printf("    %-50s %9.2f ms %5.1f%%%s\n", indent+key, ms(d), 100*float64(d)/float64(total), count)
	}
	var level func(parents []int, indent string)
	level = func(parents []int, indent string) {
		isParent := map[int]bool{}
		for _, id := range parents {
			isParent[id] = true
		}
		type group struct {
			key string
			d   time.Duration
			ids []int
		}
		idx := map[string]int{}
		var groups []group
		for _, s := range spans {
			if !isParent[s.Parent] {
				continue
			}
			key := s.Name
			if s.Op != "" {
				key += "[" + s.Op + "]"
			}
			i, ok := idx[key]
			if !ok {
				i = len(groups)
				idx[key] = i
				groups = append(groups, group{key: key})
			}
			groups[i].d += s.dur()
			groups[i].ids = append(groups[i].ids, s.ID)
		}
		if len(groups) == 0 {
			return
		}
		for _, g := range groups {
			line(indent, g.key, g.d, len(g.ids))
			level(g.ids, indent+"  ")
		}
		var self time.Duration
		for _, id := range parents {
			self += selfTime(spans, id)
		}
		line(indent, "(self)", self, 0)
	}
	level([]int{root}, "")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ---- results ---------------------------------------------------------------

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a single-workload run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// metricDef declares one metric of BENCHMARK.json. Bound is zero for the
// per-layer tier, which has none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// collect builds a Result holding exactly the metrics in defs. A metric the
// run did not produce is a programming error worth failing loudly on.
func collect(defs []metricDef, values map[string]float64, attempted, failed int) (Result, error) {
	r := Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// print lists every metric by name with its unit, in declaration order.
func (r Result) print(defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("  %-40s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
}

// ---- pins ------------------------------------------------------------------

// diffJSON returns the paths at which got differs from want, comparing
// numbers by their decimal text so a pinned float must match to the last
// digit. Both inputs are JSON documents.
func diffJSON(want, got []byte) ([]string, error) {
	decode := func(b []byte) (any, error) {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		var v any
		err := dec.Decode(&v)
		return v, err
	}
	w, err := decode(want)
	if err != nil {
		return nil, fmt.Errorf("pins: want: %w", err)
	}
	g, err := decode(got)
	if err != nil {
		return nil, fmt.Errorf("pins: got: %w", err)
	}
	var diffs []string
	var walk func(path string, w, g any)
	walk = func(path string, w, g any) {
		switch wv := w.(type) {
		case map[string]any:
			gv, ok := g.(map[string]any)
			if !ok {
				diffs = append(diffs, path+": kind differs")
				return
			}
			keys := map[string]bool{}
			for k := range wv {
				keys[k] = true
			}
			for k := range gv {
				keys[k] = true
			}
			sorted := make([]string, 0, len(keys))
			for k := range keys {
				sorted = append(sorted, k)
			}
			sort.Strings(sorted)
			for _, k := range sorted {
				a, inW := wv[k]
				b, inG := gv[k]
				switch {
				case !inW:
					diffs = append(diffs, path+"."+k+": not pinned")
				case !inG:
					diffs = append(diffs, path+"."+k+": missing")
				default:
					walk(path+"."+k, a, b)
				}
			}
		case []any:
			gv, ok := g.([]any)
			if !ok || len(gv) != len(wv) {
				diffs = append(diffs, path+": length or kind differs")
				return
			}
			for i := range wv {
				walk(path+"["+strconv.Itoa(i)+"]", wv[i], gv[i])
			}
		default:
			if fmt.Sprint(w) != fmt.Sprint(g) {
				diffs = append(diffs, fmt.Sprintf("%s: pinned %v, got %v", path, w, g))
			}
		}
	}
	walk("$", w, g)
	return diffs, nil
}

// ---- process ---------------------------------------------------------------

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
