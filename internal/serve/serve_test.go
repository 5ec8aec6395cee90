package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anton2/internal/core"
	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
)

// quickSpec is the cheap faultsweep sweep most tests submit: small torus,
// two corruption rates, small batch.
func quickSpec() *Request {
	return &Request{
		Family:  "faultsweep",
		Shape:   "2x2x2",
		Pattern: "uniform",
		Rates:   []float64{0, 0.02},
		Batch:   16,
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postWait(t *testing.T, ts *httptest.Server, req *Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs?wait=1", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestArtifactBitIdentical pins the core serving contract: the artifact the
// server returns is byte-identical to running the same request's jobs
// directly through the exp pool and canonical marshaller — i.e. identical to
// what anton2bench produces for the same specs.
func TestArtifactBitIdentical(t *testing.T) {
	req := quickSpec()
	jobs, err := req.Jobs(func() *telemetry.Options { return nil })
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.MarshalCanonical(exp.Run(jobs, exp.Options{Parallelism: 2, Cache: exp.NewCache()}))
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	resp, got := postWait(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("server artifact differs from direct canonical artifact\nserver: %d bytes\ndirect: %d bytes", len(got), len(want))
	}
	if id := resp.Header.Get("X-Anton2-Run-Id"); !validID(id) {
		t.Fatalf("X-Anton2-Run-Id = %q, want 16-hex id", id)
	}
}

// TestDedupeParallelSubmissions is the N-identical-POSTs acceptance test:
// exactly one simulation runs and every submitter gets identical bytes.
func TestDedupeParallelSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	const n = 8
	req := quickSpec()

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs?wait=1", "application/json", bytes.NewReader(mustJSON(t, req)))
			if err != nil {
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("submission %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("submission %d returned different artifact bytes", i)
		}
	}
	if got := s.Metrics().RunsStarted.Load(); got != 1 {
		t.Fatalf("RunsStarted = %d, want exactly 1 for %d identical submissions", got, n)
	}
	if hits := s.Metrics().HitsFlight.Load() + s.Metrics().HitsMemory.Load(); hits != n-1 {
		t.Fatalf("flight+memory hits = %d, want %d", hits, n-1)
	}
	// Both sweep points simulated exactly once across all submissions.
	if got := s.Metrics().PointsRun.Load(); got != 2 {
		t.Fatalf("PointsRun = %d, want 2", got)
	}
}

// TestColdRestartServesFromDisk is the persistent-cache acceptance test: a
// fresh server process (same store dir) serves a repeated spec from disk
// without re-simulation, and /metrics records the disk hit.
func TestColdRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Store: st})
	req := quickSpec()
	resp, warm := postWait(t, ts1, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status = %d, body %s", resp.StatusCode, warm)
	}
	ts1.Close()
	s1.Close()

	if _, err := os.Stat(filepath.Join(dir, "loads.json")); err != nil {
		t.Fatalf("load-table snapshot not persisted: %v", err)
	}
	if arts, _ := filepath.Glob(filepath.Join(dir, "artifacts", "*.json")); len(arts) != 1 {
		t.Fatalf("artifact count = %d, want 1", len(arts))
	}

	// "Restart": a brand-new Server over the same directory.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Store: st2})
	resp2, cold := postWait(t, ts2, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cold status = %d, body %s", resp2.StatusCode, cold)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("disk-served artifact differs from originally computed artifact")
	}
	if got := resp2.Header.Get("X-Anton2-Cache"); got != "disk" {
		t.Fatalf("X-Anton2-Cache = %q, want disk", got)
	}
	if got := s2.Metrics().RunsStarted.Load(); got != 0 {
		t.Fatalf("RunsStarted = %d after restart, want 0 (no re-simulation)", got)
	}

	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), `anton2serve_cache_hits_total{tier="disk"} 1`) {
		t.Fatalf("/metrics missing disk hit:\n%s", mb)
	}
}

// TestLoadsSavedOnlyWhenGrown: loads.json is rewritten only by a run that
// completed a load table. Three runs over one (shape, pattern, strategy) write
// it once; a run on a new shape writes it again; and what a restarted server
// would restore holds both tables.
func TestLoadsSavedOnlyWhenGrown(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: st, Workers: 1})
	run := func(shape string, batch int) os.FileInfo {
		t.Helper()
		resp, body := postWait(t, ts, &Request{Family: "throughput", Shape: shape, Batches: []int{batch}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
		// The response precedes the run's persistence; with one worker slot,
		// holding it means that is over.
		s.slots <- struct{}{}
		<-s.slots
		fi, err := os.Stat(filepath.Join(dir, "loads.json"))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	first := run("2x2x2", 2)
	run("2x2x2", 3)
	if again := run("2x2x2", 4); !os.SameFile(first, again) {
		t.Error("loads.json was replaced by a run that computed no load table")
	}
	tables := core.CachedLoadsLen()
	grown := run("2x3x2", 2)
	if core.CachedLoadsLen() == tables {
		t.Fatal("the 2x3x2 uniform table was already cached: the test needs a shape nothing else in this package uses")
	}
	if os.SameFile(first, grown) {
		t.Error("loads.json was not replaced by a run that computed a new load table")
	}

	b, err := os.ReadFile(filepath.Join(dir, "loads.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []string{"shape=2x2x2 ", "shape=2x3x2 "} {
		if !strings.Contains(string(b), shape) {
			t.Errorf("loads.json holds no table keyed %q", shape)
		}
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.RestoreLoads(); err != nil {
		t.Errorf("restart cannot restore loads.json: %v", err)
	}
}

// TestRestartStatusByIDNamesFamily: a run a restarted server finds on disk by
// id reports its family, like one re-submitted.
func TestRestartStatusByIDNamesFamily(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Store: st})
	resp, body := postWait(t, ts1, quickSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Anton2-Run-Id")
	ts1.Close()
	s1.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Store: st2})
	sresp, err := http.Get(ts2.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var ev Event
	if err := json.NewDecoder(sresp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Family != quickSpec().Family || ev.State != StateCompleted || ev.Total != 2 || ev.Done != 2 {
		t.Fatalf("status after restart = %+v, want family %q, completed, 2/2 points", ev, quickSpec().Family)
	}
}

// TestValidationRejects maps the CLI's exit-2 cases onto HTTP 400 with the
// offending field named.
func TestValidationRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"empty", `{}`, "family"},
		{"unknown family", `{"family":"figure-9000"}`, "family"},
		{"bad shape", `{"family":"throughput","shape":"4x4","batches":[8]}`, "shape"},
		{"shape trailing junk", `{"family":"throughput","shape":"4x4x2x9junk","batches":[8]}`, "shape"},
		{"missing batches", `{"family":"throughput","shape":"2x2x2"}`, "batches"},
		{"negative batch", `{"family":"faultsweep","shape":"2x2x2","rates":[0],"batch":-1}`, "batch"},
		{"rate out of range", `{"family":"faultsweep","shape":"2x2x2","rates":[1.5],"batch":8}`, "rates"},
		{"bad fault spec", `{"family":"faultsweep","shape":"2x2x2","rates":[0],"batch":8,"fault":"bogus=1"}`, "fault"},
		{"unknown strategy", `{"family":"routecompare","shape":"2x2x2","batch":8,"strategies":["warp"]}`, "strategies"},
		{"negative faillinks", `{"family":"routecompare","shape":"2x2x2","batch":8,"faillinks":[-1]}`, "faillinks"},
		{"mdstep bad workload", `{"family":"mdstep","shape":"2x2x2","halopackets":-4}`, "halopackets"},
		{"mdstep unknown strategy", `{"family":"mdstep","shape":"2x2x2","strategies":["warp"]}`, "strategies"},
		{"unknown field", `{"family":"latency","shape":"2x2x2","turbo":true}`, ""},
		{"malformed", `{"family":`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body.Error.Field != tc.field {
				t.Fatalf("error field = %q, want %q (msg: %s)", body.Error.Field, tc.field, body.Error.Msg)
			}
		})
	}
}

// TestOverloadTyped exercises the bounded queue deterministically by
// occupying the single worker slot directly: the first submission queues,
// the second overflows with 429, and queue expiry surfaces as 504.
func TestOverloadTyped(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:      1,
		MaxQueue:     1,
		QueueTimeout: 50 * time.Millisecond,
	})
	s.slots <- struct{}{} // the worker is "busy"
	defer func() { <-s.slots }()

	r1, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatalf("first submission: %v", err)
	}

	other := quickSpec()
	other.Batch = 24 // distinct spec, must queue separately
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(mustJSON(t, other)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d (body %s), want 429", resp.StatusCode, b)
	}
	if got := s.Metrics().Rejected429.Load(); got != 1 {
		t.Fatalf("Rejected429 = %d, want 1", got)
	}

	// The queued run times out waiting for the slot and fails as 504.
	select {
	case <-r1.doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("queued run never timed out")
	}
	aresp, err := http.Get(ts.URL + "/v1/runs/" + r1.id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out run artifact status = %d (body %s), want 504", aresp.StatusCode, ab)
	}
	if got := s.Metrics().Rejected504.Load(); got != 1 {
		t.Fatalf("Rejected504 = %d, want 1", got)
	}

	// A failed run is retryable: the same spec admits a fresh run.
	r2, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatalf("resubmission after 504: %v", err)
	}
	if r2 == r1 {
		t.Fatal("resubmission returned the failed run instead of a fresh one")
	}
}

// TestWaitTimeoutTyped pins the client-side deadline: a wait=1 submission
// whose timeout_ms expires gets 504 while the run itself keeps going.
func TestWaitTimeoutTyped(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.slots <- struct{}{} // hold the worker so the run cannot start
	released := false
	defer func() {
		if !released {
			<-s.slots
		}
	}()

	resp, err := http.Post(ts.URL+"/v1/runs?wait=1&timeout_ms=40", "application/json", bytes.NewReader(mustJSON(t, quickSpec())))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (body %s), want 504", resp.StatusCode, b)
	}

	// Release the worker; the run completes and is then served normally.
	<-s.slots
	released = true
	resp2, body := postWait(t, ts, quickSpec())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d, body %s", resp2.StatusCode, body)
	}
}

// TestEventsStream reads the SSE feed end to end: at least one progress
// event, then a final done event with the completed state and full count.
// streamEvents reads the run's SSE stream to its done event and returns every
// event with its kind.
func streamEvents(t *testing.T, ts *httptest.Server, id string) (events []Event, kinds []string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	kind := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
			events = append(events, ev)
			kinds = append(kinds, kind)
			if kind == "done" {
				return events, kinds
			}
		}
	}
	return events, kinds
}

func TestEventsStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	r, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	events, kinds := streamEvents(t, ts, r.id)
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least initial progress + done", len(events))
	}
	last := events[len(events)-1]
	if kinds[len(kinds)-1] != "done" {
		t.Fatalf("last event kind = %q, want done", kinds[len(kinds)-1])
	}
	if last.State != StateCompleted {
		t.Fatalf("final state = %q (err %q), want completed", last.State, last.Error)
	}
	if last.Done != int64(last.Total) || last.Total != 2 {
		t.Fatalf("final done/total = %d/%d, want 2/2", last.Done, last.Total)
	}
	if last.Cycles == 0 {
		t.Fatal("final event reports zero simulated cycles")
	}
}

// TestHeartbeatComposesWithCheckpointing: the default server with
// -checkpoint-every on still streams rising cycle counts while a point is
// running — the heartbeat is a clock-only engine observer, not a telemetry
// collector the checkpoint layer would refuse — counts every cycle once, and
// produces the artifact a NoLiveProgress server does.
func TestHeartbeatComposesWithCheckpointing(t *testing.T) {
	// One point, several heartbeat periods long (about 4 600 cycles).
	req := &Request{Family: "throughput", Shape: "2x2x2", Batches: []int{512}}
	s, ts := newTestServer(t, Config{Workers: 1, CheckpointEvery: 1000})
	r, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := streamEvents(t, ts, r.id)
	last := events[len(events)-1]
	if last.State != StateCompleted {
		t.Fatalf("final state = %q (err %q), want completed", last.State, last.Error)
	}
	live, prev := false, uint64(0)
	for _, ev := range events {
		if ev.Cycles < prev {
			t.Fatalf("cycles fell from %d to %d", prev, ev.Cycles)
		}
		prev = ev.Cycles
		live = live || (ev.Done == 0 && ev.Cycles > 0)
	}
	if !live {
		t.Errorf("no event reported cycles before the point completed: %+v", events)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + r.id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact: status %d, err %v", resp.StatusCode, err)
	}

	_, quiet := newTestServer(t, Config{Workers: 1, NoLiveProgress: true})
	resp, want := postWait(t, quiet, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, want)
	}
	if !bytes.Equal(got, want) {
		t.Error("artifact with heartbeat and checkpoints differs from the NoLiveProgress artifact")
	}
	var art exp.ArtifactFile
	if err := json.Unmarshal(want, &art); err != nil {
		t.Fatal(err)
	}
	if cycles := art.Results[0].Cycles; last.Cycles != cycles {
		t.Errorf("run reported %d simulated cycles, the point ran %d", last.Cycles, cycles)
	}
}

// TestDefaultPointsTakeTheQuietPath: what a default server adds to a point's
// machine config — the heartbeat — changes nothing about how the point runs.
// An 8x8x8 config resolves to the same shard count (two, on two cores with one
// worker) as under NoLiveProgress, carries no telemetry collector and stays
// checkpointable.
func TestDefaultPointsTakeTheQuietPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, quiet := range []bool{false, true} {
		s, _ := newTestServer(t, Config{Workers: 1, NoLiveProgress: quiet})
		mc := machine.DefaultConfig(topo.Shape3(8, 8, 8))
		s.pointConfig(func(int, uint64) {})(&mc)
		if (mc.Progress == nil) != quiet {
			t.Errorf("NoLiveProgress=%v: heartbeat installed = %v", quiet, mc.Progress != nil)
		}
		if mc.Shards != 2 || mc.Telemetry != nil {
			t.Errorf("NoLiveProgress=%v: Shards = %d, Telemetry = %v; want 2 shards and no collector", quiet, mc.Shards, mc.Telemetry)
		}
		if err := mc.Checkpointable(); err != nil {
			t.Errorf("NoLiveProgress=%v: %v", quiet, err)
		}
	}
}

// TestDrainGraceful verifies shutdown semantics: in-flight work finishes,
// new submissions get 503, and /healthz flips to draining.
func TestDrainGraceful(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	r, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := r.snapshot().State; got != StateCompleted {
		t.Fatalf("in-flight run state after drain = %q, want completed", got)
	}

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(mustJSON(t, quickSpec())))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status = %d, want 503", resp.StatusCode)
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, h.Body)
	h.Body.Close()
	if h.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz status = %d, want 503", h.StatusCode)
	}
}

// TestStatusAndArtifactEndpoints covers the poll path: status for a live
// run, 202 for a pending artifact, 404 for garbage ids.
func TestStatusAndArtifactEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	r, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-r.doneCh

	resp, err := http.Get(ts.URL + "/v1/runs/" + r.id)
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ev.ID != r.id || ev.State != StateCompleted {
		t.Fatalf("status = %+v", ev)
	}

	for _, id := range []string{"nope", "0123456789abcdef"} {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status for %q = %d, want 404", id, resp.StatusCode)
		}
	}
}

// TestMixedFamiliesConcurrentClients: four closed-loop clients POST a seeded
// draw, with repeats, over every family and every traffic pattern; every
// reply is 200 and the repeats are served by a cache tier.
func TestMixedFamiliesConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("24 cold-and-warm submissions in -short mode")
	}
	s, ts := newTestServer(t, Config{Workers: 4})
	pool := []*Request{
		{Family: "faultsweep", Shape: "2x2x2", Pattern: "uniform", Rates: []float64{0, 0.01, 0.05}, Batch: 8},
		{Family: "faultsweep", Shape: "2x2x2", Pattern: "tornado", Rates: []float64{0, 0.02}, Batch: 8, Fault: "stall=0.001"},
		{Family: "blend", Shape: "2x2x2", Fractions: []float64{0, 0.5, 1}, Weights: "both", Batch: 8},
		{Family: "latency", Shape: "2x2x2"},
		{Family: "energy", Payload: "random", Flits: 64},
	}
	for _, name := range PatternNames() {
		pool = append(pool, &Request{Family: "throughput", Shape: "2x2x2", Pattern: name, Batches: []int{8}})
	}
	rng := rand.New(rand.NewSource(1))
	draws := make(chan []byte, 24)
	for i := 0; i < cap(draws); i++ {
		draws <- mustJSON(t, pool[rng.Intn(len(pool))])
	}
	close(draws)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range draws {
				resp, err := http.Post(ts.URL+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d for %s", resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Wait()
	if s.Metrics().hitRate() <= 0 {
		t.Fatal("expected repeated draws to produce cache hits")
	}
}

// TestRouteCompareServed: the routecompare family is servable, and the
// returned artifact scores every registered strategy — the same cells
// anton2bench's routecompare experiment computes.
func TestRouteCompareServed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postWait(t, ts, &Request{
		Family:    "routecompare",
		Shape:     "2x2x2",
		Batch:     4,
		FailLinks: []int{0, 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var artifact struct {
		Results []struct {
			Error string `json:"error"`
			Value struct {
				Strategy     string `json:"strategy"`
				FailLinks    int    `json:"fail_links"`
				DeadlockFree bool   `json:"deadlock_free"`
			} `json:"value"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &artifact); err != nil {
		t.Fatal(err)
	}
	strategies := map[string]bool{}
	for i, r := range artifact.Results {
		if r.Error != "" {
			t.Errorf("point %d failed: %s", i, r.Error)
		}
		strategies[r.Value.Strategy] = true
		if r.Value.FailLinks == 0 && !r.Value.DeadlockFree {
			t.Errorf("point %d: healthy %s cell not verified deadlock-free", i, r.Value.Strategy)
		}
	}
	if len(strategies) < 4 {
		t.Errorf("artifact scores %d strategies, want >= 4: %v", len(strategies), strategies)
	}
}

// TestMDStepServed: the mdstep family is servable, and the returned artifact
// reports per-phase and total timestep time for every registered strategy —
// the same points anton2bench's mdstep experiment computes.
func TestMDStepServed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postWait(t, ts, &Request{
		Family:      "mdstep",
		Shape:       "2x2x2",
		HaloPackets: 4,
		HaloBurst:   2,
		Multicasts:  1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var artifact struct {
		Results []struct {
			Error string `json:"error"`
			Value struct {
				Strategy    string `json:"strategy"`
				Workload    string `json:"workload"`
				TotalCycles uint64 `json:"total_cycles"`
				Phases      []struct {
					Phase  string `json:"phase"`
					Cycles uint64 `json:"cycles"`
				} `json:"phases"`
			} `json:"value"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &artifact); err != nil {
		t.Fatal(err)
	}
	strategies := map[string]bool{}
	for i, r := range artifact.Results {
		if r.Error != "" {
			t.Errorf("point %d failed: %s", i, r.Error)
			continue
		}
		strategies[r.Value.Strategy] = true
		if r.Value.Workload != "h1.4.2-m1.1-r2-t1" {
			t.Errorf("point %d workload = %q, want defaults applied to the request knobs", i, r.Value.Workload)
		}
		if r.Value.TotalCycles == 0 || len(r.Value.Phases) != 3 {
			t.Errorf("point %d: %d cycles over %d phase rows, want a timed 3-phase timestep",
				i, r.Value.TotalCycles, len(r.Value.Phases))
		}
		for _, ph := range r.Value.Phases {
			if ph.Cycles == 0 {
				t.Errorf("point %d: phase %s reports zero cycles", i, ph.Phase)
			}
		}
	}
	if len(strategies) < 4 {
		t.Errorf("artifact scores %d strategies, want >= 4: %v", len(strategies), strategies)
	}
}
