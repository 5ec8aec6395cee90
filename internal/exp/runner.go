package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"anton2/internal/ckpt"
	"anton2/internal/sim"
)

// Job is one independent experiment: a spec identifying it and a runner
// executing it. Run receives the spec-derived seed; it must thread that seed
// into every random stream it creates so results depend only on the spec,
// never on which worker runs the job or when.
//
// RunCkpt, when non-nil, is the checkpoint-aware variant: given an enabled
// ckpt.RunConfig it must persist resumable state at the configured interval
// and, resuming from what rc.Load returns, produce a result bit-identical to
// an uninterrupted Run. Jobs without RunCkpt always start from scratch.
type Job struct {
	Spec    *Spec
	Run     func(seed uint64) (any, error)
	RunCkpt func(seed uint64, rc ckpt.RunConfig) (any, error)
}

// Cycler is implemented by result values that know their simulated cycle
// count; Run copies it into Result.Cycles for the artifacts.
type Cycler interface{ SimCycles() uint64 }

// Options configures a sweep execution.
type Options struct {
	// Name labels progress lines and artifacts (e.g. "fig9").
	Name string
	// Parallelism bounds the worker pool; <= 0 means runtime.GOMAXPROCS.
	Parallelism int
	// Cache, when non-nil, memoizes results by spec canonical string so
	// repeated sweeps (or duplicate points within one) skip the work.
	Cache *Cache
	// Progress, when non-nil, receives one line per completed job
	// (conventionally os.Stderr).
	Progress io.Writer
	// OnResult, when non-nil, receives every completed result (including
	// failed and cancelled points). Calls are serialized by the pool, so
	// the callback needs no locking of its own, but it runs on worker
	// goroutines and must not block.
	OnResult func(Result)
	// Checkpoint enables crash recovery for jobs that provide RunCkpt.
	Checkpoint CheckpointOptions
}

// CheckpointOptions configures checkpointing: each job writes resumable state
// under Dir every Every cycles. A job runs once per sweep, so what picks a
// checkpoint up is a later sweep over the same Dir — the whole-process
// restart case, where a previous invocation's checkpoints are still on disk.
// The zero value disables checkpointing.
type CheckpointOptions struct {
	Dir   string
	Every uint64
}

// runConfig derives one job's checkpoint config. The file name pins
// (spec hash, seed), and the checkpoint tag pins the full canonical spec, so
// a stale file from a different run sharing the path is ignored on load.
// Without a Dir there is no path, so the config is disabled.
func (c CheckpointOptions) runConfig(hash string, seed uint64) ckpt.RunConfig {
	rc := ckpt.RunConfig{Every: c.Every}
	if c.Dir != "" {
		rc.Path = filepath.Join(c.Dir, fmt.Sprintf("%s-%016x.ckpt", hash, seed))
	}
	return rc
}

// Serial returns options that run jobs one at a time in order.
func Serial() Options { return Options{Parallelism: 1} }

// Parallel returns options with the given worker-pool size (0 = GOMAXPROCS).
func Parallel(workers int) Options { return Options{Parallelism: workers} }

// Result is the structured outcome of one job, in the job's input position
// regardless of completion order.
type Result struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"`
	Spec  string `json:"spec"`
	// Hash is the spec hash (hex); Seed the seed derived from it.
	Hash string `json:"hash"`
	Seed uint64 `json:"seed"`
	// Value is the job's returned measurement (nil on failure).
	Value any `json:"value,omitempty"`
	// Err preserves the job's error; Error is its string form for JSON.
	Err      error  `json:"-"`
	Error    string `json:"error,omitempty"`
	Deadlock bool   `json:"deadlock,omitempty"`
	// Degraded marks a graceful-degradation outcome: the value or the
	// error reported Degraded() true (permanent link faults survived by
	// rerouting, or a link's retransmission budget exhausted).
	Degraded bool `json:"degraded,omitempty"`
	// Cycles is the simulated cycle count when the value reports one.
	Cycles uint64  `json:"cycles,omitempty"`
	Cached bool    `json:"cached,omitempty"`
	WallMS float64 `json:"wall_ms"`
}

// Workers is the width of the pool RunCtx runs the given number of jobs over:
// Parallelism (GOMAXPROCS when <= 0), but never more workers than jobs. A
// caller that sizes per-job resources to the cores left over (machine
// sharding) reads it before building its jobs.
func (o Options) Workers(jobs int) int {
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, jobs)
}

// Run executes the jobs over a worker pool and returns one Result per job in
// input order. A job that fails (including by panic or simulated deadlock)
// becomes a failed point; the rest of the sweep still completes.
func Run(jobs []Job, opts Options) []Result {
	return RunCtx(context.Background(), jobs, opts)
}

// RunCtx is Run under a context: when ctx is cancelled the pool stops
// scheduling new jobs promptly, fills every unscheduled point with a typed
// *ErrCancelled failure, and abandons the in-flight jobs, which become
// cancelled points too. Cancelled points are never written to the cache, so a
// later run of the same specs recomputes them.
func RunCtx(ctx context.Context, jobs []Job, opts Options) []Result {
	workers := opts.Workers(len(jobs))
	results := make([]Result, len(jobs))

	var mu sync.Mutex // guards progress output, OnResult, completion count
	done := 0
	report := func(r *Result) {
		if opts.Progress == nil && opts.OnResult == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		if opts.Progress != nil {
			status := "ok"
			var cancelled *ErrCancelled
			switch {
			case r.Deadlock:
				status = "DEADLOCK"
			case errors.As(r.Err, &cancelled):
				status = "cancelled"
			case r.Err != nil && r.Degraded:
				status = "DEGRADED"
			case r.Err != nil:
				status = "FAILED"
			case r.Cached:
				status = "cached"
			case r.Degraded:
				status = "degraded"
			}
			name := opts.Name
			if name == "" {
				name = "exp"
			}
			fmt.Fprintf(opts.Progress, "%s: [%*d/%d] %-8s %s (%.0f ms)\n",
				name, digits(len(jobs)), done, len(jobs), status, truncate(r.Spec, 96), r.WallMS)
			if r.Err != nil {
				fmt.Fprintf(opts.Progress, "%s:   error: %v\n", name, r.Err)
			}
		}
		if opts.OnResult != nil {
			opts.OnResult(*r)
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					results[i] = cancelledResult(i, jobs[i], err)
				} else {
					results[i] = runOne(ctx, i, jobs[i], opts)
				}
				report(&results[i])
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Every job not yet handed to a worker becomes a cancelled
			// point; the workers drain whatever they already started.
			for j := i; j < len(jobs); j++ {
				results[j] = cancelledResult(j, jobs[j], ctx.Err())
				report(&results[j])
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return results
}

// cancelledResult fills one never-run point after cancellation.
func cancelledResult(i int, j Job, cause error) Result {
	err := &ErrCancelled{Cause: cause}
	return Result{
		Index: i,
		Kind:  j.Spec.Kind(),
		Spec:  j.Spec.Canonical(),
		Hash:  fmt.Sprintf("%016x", j.Spec.Hash()),
		Seed:  j.Spec.Seed(),
		Err:   err,
		Error: err.Error(),
	}
}

// runOne executes a single job once, with panic isolation and caching.
func runOne(ctx context.Context, i int, j Job, opts Options) Result {
	r := Result{
		Index: i,
		Kind:  j.Spec.Kind(),
		Spec:  j.Spec.Canonical(),
		Hash:  fmt.Sprintf("%016x", j.Spec.Hash()),
		Seed:  j.Spec.Seed(),
	}
	start := time.Now()
	run := func() (val any, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("exp: job %s panicked: %v", r.Kind, p)
			}
		}()
		if rc := opts.Checkpoint.runConfig(r.Hash, r.Seed); rc.Enabled() && j.RunCkpt != nil {
			return j.RunCkpt(r.Seed, rc)
		}
		return j.Run(r.Seed)
	}
	if ctx.Done() != nil {
		// A cancelled context abandons the in-flight job promptly; its
		// goroutine runs on unobserved.
		inner := run
		run = func() (any, error) {
			type outcome struct {
				val any
				err error
			}
			ch := make(chan outcome, 1)
			go func() {
				v, e := inner()
				ch <- outcome{val: v, err: e}
			}()
			select {
			case o := <-ch:
				return o.val, o.err
			case <-ctx.Done():
				return nil, &ErrCancelled{Cause: ctx.Err()}
			}
		}
	}
	var val any
	var err error
	if opts.Cache != nil {
		val, r.Cached, err = opts.Cache.Do(r.Spec, run)
		// A cancelled computation reflects this run's deadline, not the
		// spec's deterministic outcome; drop it so later runs recompute.
		var cancelled *ErrCancelled
		if errors.As(err, &cancelled) {
			opts.Cache.Forget(r.Spec)
		}
	} else {
		val, err = run()
	}
	r.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		r.Err = err
		r.Error = err.Error()
		var dl *sim.ErrDeadlock
		r.Deadlock = errors.As(err, &dl)
		var dg Degrader
		r.Degraded = errors.As(err, &dg) && dg.Degraded()
		return r
	}
	r.Value = val
	if c, ok := val.(Cycler); ok {
		r.Cycles = c.SimCycles()
	}
	if dg, ok := val.(Degrader); ok && dg.Degraded() {
		r.Degraded = true
	}
	return r
}

// Degrader is implemented by values and errors that classify their outcome
// as graceful degradation rather than clean success or hard failure.
type Degrader interface{ Degraded() bool }

// ErrCancelled reports a point that never ran (or was abandoned mid-run)
// because the RunCtx context was cancelled. It unwraps to the context's
// error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both work.
type ErrCancelled struct{ Cause error }

func (e *ErrCancelled) Error() string {
	return fmt.Sprintf("exp: run cancelled: %v", e.Cause)
}

// Unwrap exposes the context error that triggered the cancellation.
func (e *ErrCancelled) Unwrap() error { return e.Cause }

// FirstErr returns the first failed result's error annotated with its spec,
// or nil when every point succeeded.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Spec, r.Err)
		}
	}
	return nil
}

// Failed counts failed points.
func Failed(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Err != nil {
			n++
		}
	}
	return n
}

func digits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
