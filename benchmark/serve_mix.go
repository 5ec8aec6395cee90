package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anton2/internal/exp"
	"anton2/internal/serve"
	"anton2/internal/telemetry"
)

// serve_mix drives an in-process anton2serve over loopback HTTP with a closed
// loop: each of serveClients clients sends its next POST only after the
// previous answer arrived, the way scripts that wait for results behave.
const serveClients = 2

// serveRequests generates the workload's distinct specs from the seed. The
// families and shapes are fixed; the seed draws each spec's batch size (or
// fraction, rate, halo volume) from its own stratum, so every seed submits
// different specs while the total simulation work stays within a few percent.
// Patterns that place no torus load on a shape (tornado on 2x2x2) are left
// out: the workload admits no operation that fails by construction.
func serveRequests(seed uint64) []*serve.Request {
	rng := rand.New(rand.NewSource(int64(seed)))
	const strata = 8
	// draw returns one value per stratum of [lo, hi).
	draw := func(lo, hi int) []int {
		width := (hi - lo) / strata
		out := make([]int, strata)
		for j := range out {
			out[j] = lo + j*width + rng.Intn(width)
		}
		return out
	}
	var reqs []*serve.Request
	small := []string{"uniform", "1-hop", "2-hop", "bit-complement", "nearest-neighbor"}
	for _, p := range small {
		for _, b := range draw(16, 144) {
			reqs = append(reqs, &serve.Request{Family: "throughput", Shape: "2x2x2", Pattern: p, Batches: []int{b}})
		}
	}
	for _, p := range serve.PatternNames() {
		for _, b := range draw(8, 72) {
			reqs = append(reqs, &serve.Request{Family: "throughput", Shape: "4x2x2", Pattern: p, Batches: []int{b}})
		}
	}
	for _, shape := range []string{"2x2x2", "4x2x2"} {
		for _, b := range draw(8, 72) {
			reqs = append(reqs, &serve.Request{Family: "throughput", Shape: shape, Arbiter: "iw", Batches: []int{b}})
		}
		for _, r := range draw(1, 81) {
			reqs = append(reqs, &serve.Request{Family: "faultsweep", Shape: shape, Rates: []float64{float64(r) / 1000}, Batch: 16})
		}
		names := []string{"angara", "anton", "baseline-2n", "vcless"}
		for j, h := range draw(4, 36) {
			reqs = append(reqs, &serve.Request{Family: "mdstep", Shape: shape, Strategies: []string{names[j%len(names)]}, HaloPackets: h})
		}
		for j, b := range draw(8, 40) {
			reqs = append(reqs, &serve.Request{Family: "routecompare", Shape: shape, Strategies: []string{names[j%len(names)]}, Batch: b})
		}
	}
	for _, f := range draw(0, 1000) {
		reqs = append(reqs, &serve.Request{Family: "blend", Shape: "4x2x2", Weights: "both", Fractions: []float64{float64(f) / 1000}, Batch: 16})
	}
	return reqs
}

// probeRequests is the small fixed set the per-layer serve probe uses on
// workloads other than serve_mix.
func probeRequests() []*serve.Request {
	var reqs []*serve.Request
	for b := 8; b <= 64; b += 8 {
		reqs = append(reqs, &serve.Request{Family: "throughput", Shape: "2x2x2", Batches: []int{b}})
	}
	return reqs
}

// minWarm is the shortest warm phase a budgeted pass accepts, however long the
// cold phase took on this host.
const minWarm = 3 * time.Second

// serveConfig sizes one cold -> warm -> disk pass.
type serveConfig struct {
	reqs []*serve.Request
	seed uint64
	// The warm phase is sized either by a whole-pass budget, of which it takes
	// what cold and disk leave (untraced serve_mix: the run measures for a set
	// time), or by a submission count (set-up, and traced runs, whose tier
	// counters must repeat exactly).
	budget time.Duration
	warmN  int
	// betweenPhases, when non-nil, runs with no client active, after the cold
	// phase and after the warm phase.
	betweenPhases func()
	restarts      int    // disk phase: server restarts over the same store
	dir           string // store directory (created, left for the caller to remove)
	tr            *Tracer
	parent        int
}

// serveOutcome is what one pass measured.
type serveOutcome struct {
	attempted, failed int
	ids               []string // artifact id per spec
	bodies            [][]byte // request body per spec
	shas              map[string]string
	coldUS            []float64 // latency samples per phase, microseconds
	warmUS            []float64
	diskUS            []float64
	coldSpan          []int // span id of each spec's cold POST (traced runs)
	coldOrder         []int // spec indices in cold submission order
	coldElapsed       time.Duration
	warmElapsed       time.Duration
	newServerMS       []float64
	counters          map[string]float64 // /metrics, summed over every server of the pass
	// warmTracedUS holds the second half of the warm phase when tracing: the
	// half that recorded spans, against warmUS which did not.
	warmTracedUS []float64
}

// liveServer is one server process-equivalent: store, server, listener.
type liveServer struct {
	srv *serve.Server
	ts  *httptest.Server
	url string
}

func startServer(dir string) (*liveServer, error) {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Store: store, Workers: 2, NoLiveProgress: true})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	ls := &liveServer{srv: srv, ts: ts, url: ts.URL}
	for i := 0; ; i++ {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if i > 5000 {
			ls.stop(nil)
			return nil, fmt.Errorf("server never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop folds the server's counters into sum (when non-nil), closes the
// listener, and waits for every run goroutine: artifacts are persisted after
// the waiting client is answered, so a restart must drain first.
func (ls *liveServer) stop(sum map[string]float64) error {
	var err error
	if sum != nil {
		var resp *http.Response
		if resp, err = ls.ts.Client().Get(ls.url + "/metrics?format=json"); err == nil {
			m := map[string]float64{}
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			for k, v := range m {
				sum[k] += v
			}
		}
	}
	ls.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if derr := ls.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	return err
}

// phase is what one drive of submissions produced: a latency per submission,
// how many answers were wrong, and (cold phase only, when expect is nil) the
// answer's body and span id by spec.
type phase struct {
	latUS  []float64
	failed int
	body   [][]byte
	span   []int
}

// drive submits seq[i] for i = 0, 1, ... from serveClients closed-loop
// clients until seq is exhausted or, when deadline is non-zero, until it
// passes (seq is then reused cyclically). An answer must be 2xx and, when
// expect is non-nil, equal expect[spec] byte for byte. spanEvery > 0 records
// every n-th submission as a span under parent.
func drive(ls *liveServer, bodies [][]byte, seq []int, deadline time.Time, expect [][]byte, tr *Tracer, parent int, op string, spanEvery int) phase {
	url := ls.url + "/v1/runs?wait=1"
	client := ls.ts.Client()
	var out phase
	if expect == nil {
		out.body, out.span = make([][]byte, len(bodies)), make([]int, len(bodies))
	}
	lats := make([][]float64, serveClients)
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if deadline.IsZero() {
					if i >= len(seq) {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				spec := seq[i%len(seq)]
				span := 0
				if spanEvery > 0 && i%spanEvery == 0 {
					span = tr.Begin(parent, "POST /v1/runs", op)
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[spec]))
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					resp.Body.Close()
				}
				lats[c] = append(lats[c], us(time.Since(t0)))
				tr.End(span, float64(buf.Len()))
				switch {
				case err != nil || resp.StatusCode < 200 || resp.StatusCode > 299:
					failed.Add(1)
				case expect == nil:
					// Each spec is submitted once in this mode, so no two
					// clients write the same element.
					out.body[spec], out.span[spec] = bytes.Clone(buf.Bytes()), span
				case !bytes.Equal(buf.Bytes(), expect[spec]):
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, l := range lats {
		out.latUS = append(out.latUS, l...)
	}
	out.failed = int(failed.Load())
	return out
}

// runServe performs one cold -> warm -> disk pass and checks every answer:
// 2xx status, no failed point inside a cold artifact, and byte equality of the
// served body across the three tiers.
func runServe(cfg serveConfig) (*serveOutcome, error) {
	out := &serveOutcome{shas: map[string]string{}, counters: map[string]float64{}}
	for _, q := range cfg.reqs {
		body, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		id, err := q.ID()
		if err != nil {
			return nil, fmt.Errorf("generated spec %s: %w", body, err)
		}
		out.bodies = append(out.bodies, body)
		out.ids = append(out.ids, id)
	}
	n := len(cfg.reqs)
	rng := rand.New(rand.NewSource(int64(cfg.seed) + 1))
	tr := cfg.tr

	// Cold: every spec once, in seed order. Each is a miss that simulates.
	ls, err := startServer(cfg.dir)
	if err != nil {
		return nil, err
	}
	span := tr.Begin(cfg.parent, "serve.phase", "cold")
	start := time.Now()
	out.coldOrder = rng.Perm(n)
	cold := drive(ls, out.bodies, out.coldOrder, time.Time{}, nil, tr, span, "cold", 1)
	out.coldElapsed = time.Since(start)
	tr.End(span, float64(n))
	out.attempted, out.failed = n, cold.failed
	out.coldUS, out.coldSpan = cold.latUS, cold.span
	artifacts := cold.body
	for spec, body := range artifacts {
		sum := sha256.Sum256(body)
		out.shas[out.ids[spec]] = hex.EncodeToString(sum[:])
		if body != nil && artifactFailed(body) {
			out.failed++
		}
	}
	between := func() {
		if cfg.betweenPhases != nil {
			cfg.betweenPhases()
		}
	}
	between()
	check := func(p phase, into *[]float64) {
		out.attempted += len(p.latUS)
		out.failed += p.failed
		*into = append(*into, p.latUS...)
	}

	// Warm: draws with replacement from the same set; all memory-tier hits.
	// A traced run repeats the phase recording spans, so the two passes give
	// the tracing overhead.
	seq := make([]int, 1<<16)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	until := func() time.Time {
		if cfg.warmN > 0 {
			return time.Time{}
		}
		// The disk phase is short and of fixed size; leave it a second.
		return time.Now().Add(max(minWarm, cfg.budget-out.coldElapsed-time.Second))
	}
	if cfg.warmN > 0 {
		seq = seq[:cfg.warmN]
	}
	span = tr.Begin(cfg.parent, "serve.phase", "warm")
	start = time.Now()
	warm := drive(ls, out.bodies, seq, until(), artifacts, nil, 0, "", 0)
	out.warmElapsed = time.Since(start)
	tr.End(span, float64(len(warm.latUS)))
	check(warm, &out.warmUS)
	if tr != nil {
		span = tr.Begin(cfg.parent, "serve.phase", "warm-traced")
		traced := drive(ls, out.bodies, seq, until(), artifacts, tr, span, "memory", 64)
		tr.End(span, float64(len(traced.latUS)))
		check(traced, &out.warmTracedUS)
	}
	between()
	if err := ls.stop(out.counters); err != nil {
		return nil, err
	}

	// Disk: a new server over the same store; each spec's first submission
	// reads the artifact back and verifies its checksum.
	for r := 0; r < cfg.restarts; r++ {
		start = time.Now()
		if ls, err = startServer(cfg.dir); err != nil {
			return nil, err
		}
		out.newServerMS = append(out.newServerMS, ms(time.Since(start)))
		span = tr.Begin(cfg.parent, "serve.phase", "disk")
		disk := drive(ls, out.bodies, rng.Perm(n), time.Time{}, artifacts, tr, span, "disk", 1)
		tr.End(span, float64(n))
		check(disk, &out.diskUS)
		if err := ls.stop(out.counters); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// artifactFailed reports whether a canonical artifact holds a failed point.
func artifactFailed(b []byte) bool {
	var art struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &art); err != nil || len(art.Results) == 0 {
		return true
	}
	for _, r := range art.Results {
		if r.Error != "" {
			return true
		}
	}
	return false
}

// reenactCold replays what the server does for one cold submission through
// exported functions, under spans parented to that submission's POST span, so
// the POST's self time is what HTTP, admission and hand-off add.
func reenactCold(tr *Tracer, parent int, body []byte, scratch *serve.Store) error {
	var req *serve.Request
	var err error
	tr.Do(parent, "serve.ParseRequest", "", float64(len(body)), func() { req, err = serve.ParseRequest(bytes.NewReader(body)) })
	if err != nil {
		return err
	}
	var id string
	tr.Do(parent, "serve.Request.ID", "", 0, func() { id, err = req.ID() })
	if err != nil {
		return err
	}
	tr.Do(parent, "serve.Store.SaveWAL", "", float64(len(body)), func() { err = scratch.SaveWAL(id, body) })
	if err != nil {
		return err
	}
	var rs []exp.Result
	tr.Do(parent, "exp.Run", "", 0, func() {
		var jobs []exp.Job
		if jobs, err = req.Jobs(func() *telemetry.Options { return nil }); err == nil {
			rs = exp.Run(jobs, exp.Serial())
		}
	})
	if err != nil {
		return err
	}
	var art []byte
	tr.Do(parent, "exp.MarshalCanonical", "", 0, func() { art, err = exp.MarshalCanonical(rs) })
	if err != nil {
		return err
	}
	tr.Do(parent, "serve.Store.SaveArtifact", "", float64(len(art)), func() { err = scratch.SaveArtifact(id, art) })
	if err != nil {
		return err
	}
	tr.Do(parent, "serve.Store.SaveLoads", "", 0, func() { err = scratch.SaveLoads() })
	scratch.RemoveWAL(id)
	return err
}

// serveProbes measures the serve and store entry points one call at a time
// against the store a pass populated.
func serveProbes(tr *Tracer, parent int, o *serveOutcome, dir, scratchDir string) error {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return err
	}
	scratch, err := serve.OpenStore(scratchDir)
	if err != nil {
		return err
	}
	n := len(o.bodies)
	reqs := make([]*serve.Request, n)
	const rounds = 40
	tr.Do(parent, "serve.ParseRequest", "probe", float64(rounds*n), func() {
		for r := 0; r < rounds && err == nil; r++ {
			for i, b := range o.bodies {
				if reqs[i], err = serve.ParseRequest(bytes.NewReader(b)); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	tr.Do(parent, "serve.Request.ID", "probe", float64(rounds*n), func() {
		for r := 0; r < rounds && err == nil; r++ {
			for _, q := range reqs {
				if _, err = q.ID(); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	var loaded float64
	id := tr.Begin(parent, "serve.Store.LoadArtifact", "probe")
	for r := 0; r < 4; r++ {
		for _, aid := range o.ids {
			b, ok, lerr := store.LoadArtifact(aid)
			if lerr != nil || !ok {
				tr.End(id, loaded)
				return fmt.Errorf("load artifact %s: ok=%v err=%v", aid, ok, lerr)
			}
			loaded += float64(len(b))
		}
	}
	tr.End(id, loaded)
	art, _, err := store.LoadArtifact(o.ids[0])
	if err != nil {
		return err
	}
	const writes = 24
	for i := 0; i < writes && err == nil; i++ {
		aid := o.ids[i%n]
		tr.Do(parent, "serve.Store.SaveArtifact", "probe", float64(len(art)), func() { err = scratch.SaveArtifact(aid, art) })
		if err == nil {
			tr.Do(parent, "serve.Store.SaveWAL", "probe", float64(len(o.bodies[0])), func() { err = scratch.SaveWAL(aid, o.bodies[0]) })
			scratch.RemoveWAL(aid)
		}
	}
	if err != nil {
		return err
	}
	// Re-enact the cold path for a handful of specs from the late part of the
	// cold order, by which time their load tables were already cached.
	k := 8
	if k > n {
		k = n
	}
	for _, spec := range o.coldOrder[n-k:] {
		if err = reenactCold(tr, o.coldSpan[spec], o.bodies[spec], scratch); err != nil {
			break
		}
	}
	return err
}

// serveTemp creates a fresh directory for a store under tmp.
func serveTemp(tmp, name string) (string, error) {
	dir := filepath.Join(tmp, name)
	return dir, os.MkdirAll(dir, 0o755)
}
