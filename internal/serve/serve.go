// Package serve turns the experiment harness into a long-running service:
// an HTTP/JSON server that accepts experiment specs (the same families
// anton2bench runs), validates them with the CLI's exit-2 rigor (HTTP 400),
// collapses identical in-flight submissions onto one simulation through the
// run registry keyed by canonical-spec hash, shards sweep points across the
// exp worker pool, and returns content-addressed artifacts that are
// byte-identical to anton2bench's canonical artifacts for the same specs.
//
// The result cache has three tiers, checked in order at submission:
//
//  1. flight — an identical run is queued or executing; the submission
//     attaches to it (exactly one simulation runs for N identical POSTs);
//  2. memory — the same run registry holds the completed run and its
//     artifact bytes;
//  3. disk — the persistent Store (content-addressed by spec hash) holds
//     the artifact from an earlier run or an earlier process, one
//     artifacts/<hash>.art file each: the canonical bytes plus the CRC-32C
//     seal a checkpoint ends with (ckpt.Seal), checked on every read;
//     restarts serve warm specs without re-simulation.
//
// Overload degrades with typed responses instead of unbounded queueing: a
// full admission queue returns 429, a request that cannot start or finish
// inside its deadline returns 504, and a draining server returns 503.
// Live progress streams per run over SSE, fed per completed sweep point by
// the exp.Options.OnResult hook and every machine.ProgressCycles simulated
// cycles by the machine's Progress heartbeat.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anton2/internal/core"
	"anton2/internal/exp"
	"anton2/internal/machine"
)

// Config tunes a Server. The zero value plus a Store is serviceable; every
// bound has a production-shaped default.
type Config struct {
	// Store is the persistent artifact + load-table cache (required).
	Store *Store
	// Workers bounds concurrently executing runs (default 2).
	Workers int
	// PointParallelism is the exp worker-pool size inside one run
	// (default 1: cross-request concurrency comes from Workers).
	PointParallelism int
	// MaxQueue bounds runs waiting for a worker slot; submissions beyond
	// it are refused with 429 (default 16).
	MaxQueue int
	// QueueTimeout bounds one run's wait for a worker slot; expiry fails
	// the run with 504 (default 30s).
	QueueTimeout time.Duration
	// RunTimeout bounds one run's execution; expiry cancels the sweep's
	// remaining points and fails the run with 504 (default 5m).
	RunTimeout time.Duration
	// NoLiveProgress drops the cycle heartbeat (machine.Config.Progress)
	// SSE clients otherwise see between point completions. A point runs the
	// same either way, so the field stays only because benchmark/ compiles
	// against it; retiring it is a benchmark-only PR.
	NoLiveProgress bool
	// CheckpointEvery, when non-zero, makes every checkpoint-aware sweep
	// point persist a resumable snapshot to <store>/ckpt at least every
	// that many simulated cycles. Combined with the write-ahead log of
	// admitted runs, a killed server that restarts over the same store
	// re-admits its unfinished runs and resumes each point mid-simulation,
	// bit-identical to an uninterrupted run (0 = off).
	CheckpointEvery uint64
	// Logf, when non-nil, receives operational log lines (persistence
	// failures, drain progress). The default discards them.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.PointParallelism <= 0 {
		out.PointParallelism = 1
	}
	if out.MaxQueue <= 0 {
		out.MaxQueue = 16
	}
	if out.QueueTimeout <= 0 {
		out.QueueTimeout = 30 * time.Second
	}
	if out.RunTimeout <= 0 {
		out.RunTimeout = 5 * time.Minute
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Run states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
)

// run is one submission's lifecycle. Identical submissions share one run.
type run struct {
	id     string
	family string
	total  int
	cache  string // tier that satisfied the submission: "", flight, memory, disk

	done   atomic.Int64  // completed sweep points
	cycles atomic.Uint64 // simulated cycles (live, via the machine heartbeat)

	mu       sync.Mutex
	state    string
	err      error
	artifact []byte
	subs     map[chan struct{}]struct{}

	doneCh chan struct{} // closed on completion or failure
}

// Event is one progress update, also the status-endpoint body.
type Event struct {
	ID     string `json:"id"`
	Family string `json:"family"`
	State  string `json:"state"`
	Done   int64  `json:"done"`
	Total  int    `json:"total"`
	Cycles uint64 `json:"cycles"`
	Cache  string `json:"cache,omitempty"`
	Error  string `json:"error,omitempty"`
}

func (r *run) snapshot() Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := Event{
		ID:     r.id,
		Family: r.family,
		State:  r.state,
		Done:   r.done.Load(),
		Total:  r.total,
		Cycles: r.cycles.Load(),
		Cache:  r.cache,
	}
	if r.err != nil {
		ev.Error = r.err.Error()
	}
	return ev
}

// subscribe registers a coalescing notification channel.
func (r *run) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	r.mu.Lock()
	if r.subs == nil {
		r.subs = map[chan struct{}]struct{}{}
	}
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	return ch
}

func (r *run) unsubscribe(ch chan struct{}) {
	r.mu.Lock()
	delete(r.subs, ch)
	r.mu.Unlock()
}

// notify wakes every subscriber without blocking (channels coalesce).
func (r *run) notify() {
	r.mu.Lock()
	for ch := range r.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	r.mu.Unlock()
}

func (r *run) currentState() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *run) setState(state string) {
	r.mu.Lock()
	r.state = state
	r.mu.Unlock()
	r.notify()
}

// finish moves the run to a terminal state exactly once.
func (r *run) finish(state string, artifact []byte, err error) {
	r.mu.Lock()
	if r.state == StateCompleted || r.state == StateFailed {
		r.mu.Unlock()
		return
	}
	r.state = state
	r.artifact = artifact
	r.err = err
	r.mu.Unlock()
	r.notify()
	close(r.doneCh)
}

// Server is the experiment-serving subsystem. Create with NewServer, mount
// via Handler, stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	store   *Store
	metrics Metrics

	// points is the point-level singleflight shared by every run, so two
	// different sweeps overlapping in a point still simulate it once.
	points *exp.Cache

	// runs is the flight and memory tiers in one registry, keyed by run id
	// (the canonical request spec's hash): a queued or executing entry
	// absorbs identical submissions, a completed one serves its bytes.
	mu     sync.Mutex
	runs   map[string]*run
	queued int // runs in StateQueued (admission bound)

	slots chan struct{} // worker tokens, cap = Workers

	baseCtx   context.Context
	cancelAll context.CancelFunc
	draining  atomic.Bool
	// ready flips true once startup recovery — write-ahead-log re-admission
	// of runs a previous process left unfinished — has completed. /readyz
	// and /healthz report 503 until then; /livez is always 200.
	ready atomic.Bool
	wg    sync.WaitGroup

	mux *http.ServeMux
}

// NewServer builds a server, restoring the persistent load-table cache so a
// warm disk cache skips analytic route enumeration from the first request,
// and re-admitting (asynchronously) any runs a previous process admitted but
// never finished, recorded in the store's write-ahead log. The server
// answers requests immediately; /readyz reports 503 until re-admission has
// completed.
func NewServer(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	if c.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if c.CheckpointEvery > 0 {
		if err := os.MkdirAll(filepath.Join(c.Store.Dir(), "ckpt"), 0o755); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       c,
		store:     c.Store,
		points:    exp.NewCache(),
		runs:      map[string]*run{},
		slots:     make(chan struct{}, c.Workers),
		baseCtx:   ctx,
		cancelAll: cancel,
	}
	if s.store.Logf == nil {
		s.store.Logf = c.Logf
	}
	if n, err := s.store.RestoreLoads(); err != nil {
		c.Logf("serve: load-table restore failed: %v", err)
	} else if n > 0 {
		c.Logf("serve: restored %d analytic load tables from %s", n, s.store.Dir())
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/artifact", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.wg.Add(1)
	go s.resumeWAL()
	return s, nil
}

// resumeWAL re-admits every run the write-ahead log records as unfinished,
// then marks the server ready. Re-admission goes through the normal Submit
// path: a run whose artifact made it to disk before the crash is a disk hit
// (its stale WAL entry is dropped there), anything else queues and — when
// checkpointing is on — resumes each point from its last snapshot.
func (s *Server) resumeWAL() {
	defer s.wg.Done()
	defer s.ready.Store(true)
	entries, err := s.store.ListWAL()
	if err != nil {
		s.cfg.Logf("serve: wal scan failed: %v", err)
		return
	}
	for _, e := range entries {
		req, err := ParseRequest(bytes.NewReader(e.Body))
		if err != nil {
			// An entry that no longer parses can never be re-admitted.
			s.cfg.Logf("serve: dropping unusable wal entry %s: %v", e.ID, err)
			s.store.RemoveWAL(e.ID)
			continue
		}
		if _, err := s.Submit(req); err != nil {
			// Queue full or draining: keep the entry for the next restart.
			s.cfg.Logf("serve: wal re-admit %s failed: %v", e.ID, err)
			continue
		}
		s.cfg.Logf("serve: re-admitted unfinished run %s from wal", e.ID)
	}
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully stops the server: new submissions are refused with 503,
// queued and executing runs finish, and the call returns when the last one
// does. If ctx expires first, the remaining runs are cancelled (their
// waiters get 504-class failures) and Drain returns ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done
		return ctx.Err()
	}
}

// Typed overload / lifecycle errors, mapped onto HTTP status codes.
var (
	// ErrQueueFull refuses a submission when MaxQueue runs are already
	// waiting (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrQueueTimeout fails a run that waited QueueTimeout without
	// getting a worker slot (HTTP 504).
	ErrQueueTimeout = errors.New("serve: timed out waiting for a worker")
	// ErrRunTimeout fails a run that exceeded RunTimeout (HTTP 504).
	ErrRunTimeout = errors.New("serve: run exceeded its deadline")
	// ErrDraining refuses submissions during graceful shutdown (503).
	ErrDraining = errors.New("serve: server is draining")
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error struct {
		Code  int    `json:"code"`
		Msg   string `json:"msg"`
		Field string `json:"field,omitempty"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	var body errorBody
	body.Error.Code = code
	body.Error.Msg = err.Error()
	var reqErr *RequestError
	if errors.As(err, &reqErr) {
		body.Error.Field = reqErr.Field
	}
	writeJSON(w, code, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(v)
	b = append(b, '\n')
	w.Write(b)
}

// Submit validates and admits one request, returning its run. The run may
// already be complete (memory or disk hit). Typed errors: *RequestError
// (400), ErrQueueFull (429), ErrDraining (503).
func (s *Server) Submit(req *Request) (*run, error) {
	if s.draining.Load() {
		s.metrics.RejectedGone.Add(1)
		return nil, ErrDraining
	}
	c, err := req.compile()
	if err != nil {
		return nil, err
	}
	id := c.id

	s.mu.Lock()
	if r, ok := s.runs[id]; ok {
		switch r.currentState() {
		case StateQueued, StateRunning:
			s.metrics.HitsFlight.Add(1)
			s.mu.Unlock()
			return r, nil
		case StateCompleted:
			s.metrics.HitsMemory.Add(1)
			s.mu.Unlock()
			return r, nil
		default:
			// A failed run (queue timeout, drain, run deadline) is not a
			// deterministic outcome; replace it with a fresh attempt.
			delete(s.runs, id)
		}
	}

	b, onDisk, derr := s.store.LoadArtifact(id)
	if derr != nil {
		s.mu.Unlock()
		return nil, derr
	}
	if onDisk {
		s.metrics.HitsDisk.Add(1)
		r := s.completedRun(id, b)
		s.runs[id] = r
		s.mu.Unlock()
		// A surviving WAL entry for an artifact that did reach disk is
		// stale (the crash hit between persistence and WAL cleanup).
		s.store.RemoveWAL(id)
		return r, nil
	}

	if s.queued >= s.cfg.MaxQueue {
		s.metrics.Rejected429.Add(1)
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	r := &run{
		id:     id,
		family: c.fam.Name,
		total:  c.points,
		state:  StateQueued,
		doneCh: make(chan struct{}),
	}
	s.runs[id] = r
	s.queued++
	s.metrics.QueueDepth.Store(int64(s.queued))
	s.metrics.Misses.Add(1)
	s.wg.Add(1)
	s.mu.Unlock()

	// Record the admission in the write-ahead log before execution starts:
	// if the process dies mid-run, the next one re-admits the request and
	// (with checkpointing on) resumes it. Failure to log only costs that
	// crash-safety, so the run proceeds regardless.
	if body, err := json.Marshal(req); err == nil {
		if werr := s.store.SaveWAL(id, body); werr != nil {
			s.cfg.Logf("serve: wal admit %s: %v", id, werr)
		}
	}

	go s.execute(r, c)
	return r, nil
}

// completedRun registers an already-satisfied run (disk hit). What a status
// response says about it comes from the artifact, so a run found by id after
// a restart reads the same as one re-submitted.
func (s *Server) completedRun(id string, artifact []byte) *run {
	r := &run{
		id:       id,
		state:    StateCompleted,
		cache:    "disk",
		artifact: artifact,
		doneCh:   make(chan struct{}),
	}
	r.total, r.family = probeArtifact(artifact)
	r.done.Store(int64(r.total))
	close(r.doneCh)
	return r
}

// probeArtifact decodes just enough of an artifact for a status response:
// its sweep size and its family, which is every result's kind.
func probeArtifact(b []byte) (points int, family string) {
	var probe struct {
		Results []struct {
			Kind string `json:"kind"`
		} `json:"results"`
	}
	if json.Unmarshal(b, &probe) != nil || len(probe.Results) == 0 {
		return 0, ""
	}
	return len(probe.Results), probe.Results[0].Kind
}

// execute drives one run to a terminal state: slot acquisition under the
// queue deadline, the sweep under the run deadline, then persistence.
func (s *Server) execute(r *run, c *compiled) {
	defer s.wg.Done()
	queueTimer := time.NewTimer(s.cfg.QueueTimeout)
	defer queueTimer.Stop()
	select {
	case s.slots <- struct{}{}:
	case <-queueTimer.C:
		s.leaveQueue()
		s.metrics.Rejected504.Add(1)
		s.metrics.RunsFailed.Add(1)
		r.finish(StateFailed, nil, ErrQueueTimeout)
		return
	case <-s.baseCtx.Done():
		s.leaveQueue()
		s.metrics.RunsFailed.Add(1)
		r.finish(StateFailed, nil, ErrDraining)
		return
	}
	s.leaveQueue()
	defer func() { <-s.slots }()

	s.metrics.ActiveRuns.Add(1)
	defer s.metrics.ActiveRuns.Add(-1)
	s.metrics.RunsStarted.Add(1)
	r.setState(StateRunning)

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RunTimeout)
	defer cancel()

	artifact, err := s.simulate(ctx, r, c)
	if err != nil {
		s.metrics.RunsFailed.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.Rejected504.Add(1)
			err = fmt.Errorf("%w: %v", ErrRunTimeout, err)
		}
		r.finish(StateFailed, nil, err)
		return
	}
	s.metrics.RunsCompleted.Add(1)
	r.finish(StateCompleted, artifact, nil)

	if err := s.store.SaveArtifact(r.id, artifact); err != nil {
		s.cfg.Logf("serve: persist artifact %s: %v", r.id, err)
	} else {
		// The artifact is durable; the run no longer needs crash recovery.
		s.store.RemoveWAL(r.id)
	}
	if err := s.store.SaveLoads(); err != nil {
		s.cfg.Logf("serve: persist load tables: %v", err)
	}
}

func (s *Server) leaveQueue() {
	s.mu.Lock()
	s.queued--
	s.metrics.QueueDepth.Store(int64(s.queued))
	s.mu.Unlock()
}

// simulate runs the sweep and renders the canonical artifact. Cancellation
// of any point makes the whole computation fail (cancelled points are not
// deterministic results and must not be persisted).
func (s *Server) simulate(ctx context.Context, r *run, c *compiled) ([]byte, error) {
	// live[i] is what point i has contributed to r.cycles so far: the
	// heartbeat raises it while the point simulates and OnResult tops it up
	// to the final count, so nothing is counted twice.
	var live []atomic.Uint64
	credit := func(i int, cycles uint64) {
		if prev := live[i].Load(); cycles > prev {
			live[i].Store(cycles)
			r.cycles.Add(cycles - prev)
		}
	}
	jobs := c.fam.Jobs(c.axes, s.pointConfig(func(i int, cycles uint64) {
		credit(i, cycles)
		r.notify()
	}))
	live = make([]atomic.Uint64, len(jobs))
	opts := exp.Options{
		Name:        "run-" + r.id[:8],
		Parallelism: s.cfg.PointParallelism,
		Cache:       s.points,
		OnResult: func(res exp.Result) {
			r.done.Add(1)
			credit(res.Index, res.Cycles)
			switch {
			case res.Cached:
				s.metrics.PointsCached.Add(1)
			default:
				s.metrics.PointsRun.Add(1)
			}
			if res.Err != nil {
				s.metrics.PointsFailed.Add(1)
			}
			s.metrics.SimCycles.Add(res.Cycles)
			r.notify()
		},
		// CheckpointEvery 0 leaves checkpointing off.
		Checkpoint: exp.CheckpointOptions{Dir: filepath.Join(s.store.Dir(), "ckpt"), Every: s.cfg.CheckpointEvery},
	}
	rs := exp.RunCtx(ctx, jobs, opts)
	for _, res := range rs {
		var cancelled *exp.ErrCancelled
		if errors.As(res.Err, &cancelled) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, res.Err
		}
	}
	return exp.MarshalCanonical(rs)
}

// pointConfig returns what every machine config of one execution of a sweep
// passes through last, in point order (which is exp.Result.Index order): the
// heartbeat — beat(point, cycles) on the simulating goroutine, unless
// NoLiveProgress — and auto-sharding over the cores the worker pools leave
// idle. The heartbeat changes neither the shard count nor checkpointability.
func (s *Server) pointConfig(beat func(point int, cycles uint64)) func(*machine.Config) {
	seq := 0
	return func(mc *machine.Config) {
		i := seq
		seq++
		if !s.cfg.NoLiveProgress {
			mc.Progress = func(cycles uint64) { beat(i, cycles) }
		}
		mc.Shards = core.ResolveShards(*mc, s.cfg.Workers*s.cfg.PointParallelism)
	}
}

// lookupRun finds a run by id, falling back to the persistent store so a
// restarted server still answers status and artifact queries for anything
// it ever computed.
func (s *Server) lookupRun(id string) (*run, bool) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if ok {
		return r, true
	}
	if !validID(id) {
		return nil, false
	}
	b, onDisk, err := s.store.LoadArtifact(id)
	if err != nil || !onDisk {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runs[id]; ok { // raced with a submission
		return r, true
	}
	r = s.completedRun(id, b)
	s.runs[id] = r
	return r, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	q, err := ParseRequest(req.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	r, err := s.Submit(q)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	if req.URL.Query().Get("wait") != "" {
		s.respondWhenDone(w, req, r)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+r.id)
	code := http.StatusAccepted
	if r.snapshot().State == StateCompleted {
		code = http.StatusOK
	}
	writeJSON(w, code, r.snapshot())
}

// respondWhenDone blocks a wait=1 submission until the run finishes, the
// client gives up, or the optional timeout_ms expires (504; the run keeps
// going — a later poll or identical submission picks it up).
func (s *Server) respondWhenDone(w http.ResponseWriter, req *http.Request, r *run) {
	var timeout <-chan time.Time
	if ms := req.URL.Query().Get("timeout_ms"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, &RequestError{Field: "timeout_ms", Msg: "must be a positive integer"})
			return
		}
		t := time.NewTimer(time.Duration(n) * time.Millisecond)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-r.doneCh:
	case <-req.Context().Done():
		return
	case <-timeout:
		s.metrics.Rejected504.Add(1)
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("serve: run %s still %s after client deadline", r.id, r.snapshot().State))
		return
	}
	s.writeRunArtifact(w, r)
}

func (s *Server) writeRunArtifact(w http.ResponseWriter, r *run) {
	ev := r.snapshot()
	if ev.State == StateFailed {
		code := http.StatusInternalServerError
		r.mu.Lock()
		err := r.err
		r.mu.Unlock()
		switch {
		case errors.Is(err, ErrQueueTimeout), errors.Is(err, ErrRunTimeout):
			code = http.StatusGatewayTimeout
		case errors.Is(err, ErrDraining):
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	r.mu.Lock()
	artifact := r.artifact
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Anton2-Run-Id", r.id)
	if ev.Cache != "" {
		w.Header().Set("X-Anton2-Cache", ev.Cache)
	}
	w.Write(artifact)
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookupRun(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown run %q", req.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, r.snapshot())
}

func (s *Server) handleArtifact(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookupRun(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown run %q", req.PathValue("id")))
		return
	}
	ev := r.snapshot()
	if ev.State == StateQueued || ev.State == StateRunning {
		// Not ready: poll-friendly 202 with the live status body.
		writeJSON(w, http.StatusAccepted, ev)
		return
	}
	s.writeRunArtifact(w, r)
}

// health reports the lifecycle phase and whether the server can usefully
// accept traffic right now.
func (s *Server) health() (phase string, ok bool) {
	switch {
	case s.draining.Load():
		return "draining", false
	case !s.ready.Load():
		return "resuming", false
	default:
		return "ok", true
	}
}

// handleLivez is pure liveness: the process is up and serving HTTP. Always
// 200, even while draining — restarting a draining server loses work.
func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// handleReadyz is readiness: 503 while startup WAL re-admission is still
// running or the server is draining, 200 once it can take traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	phase, ok := s.health()
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": phase})
}

// handleHealthz keeps the original combined endpoint: identical to /readyz,
// so existing poll-until-200 probes also wait out startup recovery.
func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.handleReadyz(w, req)
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.metrics.snapshot(s.cfg.Workers))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.metrics.renderText(s.cfg.Workers))
}

// handleEvents streams run progress as server-sent events: one "progress"
// event per state change, point completion, or cycle heartbeat, and a
// final "done" event when the run reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookupRun(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown run %q", req.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch := r.subscribe()
	defer r.unsubscribe(ch)

	send := func(name string) bool {
		b, _ := json.Marshal(r.snapshot())
		_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, b)
		fl.Flush()
		return err == nil
	}
	if !send("progress") {
		return
	}
	for {
		select {
		case <-r.doneCh:
			send("done")
			return
		case <-ch:
			if !send("progress") {
				return
			}
		case <-req.Context().Done():
			return
		case <-s.baseCtx.Done():
			send("done")
			return
		}
	}
}
