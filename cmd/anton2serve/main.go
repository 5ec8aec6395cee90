// Command anton2serve runs the experiment-serving subsystem: a long-running
// HTTP server that accepts experiment specs (the same families anton2bench
// runs), deduplicates identical in-flight submissions onto one simulation,
// shards sweep points across a worker pool, and serves content-addressed
// canonical artifacts — byte-identical to anton2bench's — from a
// persistent on-disk cache that survives restarts.
//
// Usage:
//
//	anton2serve [-addr host:port] [-cache dir] [-workers N] [-point-parallel N]
//	            [-max-queue N] [-queue-timeout d] [-run-timeout d] [-drain-timeout d]
//	            [-checkpoint-every cycles]
//
// API:
//
//	POST /v1/runs                submit a spec; 202 + run id (200 if cached)
//	POST /v1/runs?wait=1         submit and block for the artifact
//	GET  /v1/runs/{id}           run status (state, done/total, cycles)
//	GET  /v1/runs/{id}/artifact  canonical artifact (202 while running)
//	GET  /v1/runs/{id}/events    live progress as server-sent events
//	GET  /livez                  liveness (always 200 while the process serves)
//	GET  /readyz                 readiness (503 while recovering the WAL or draining)
//	GET  /healthz                same as /readyz (poll-until-200 compatible)
//	GET  /metrics                queue depth, cache hit rate, utilization
//
// Invalid submissions are refused with 400 (the CLI's exit-2 cases), a full
// admission queue with 429, and deadline expiry with 504. SIGINT/SIGTERM
// triggers a graceful drain: in-flight runs finish (up to -drain-timeout),
// new submissions get 503, then the process exits.
//
// Every admitted run is recorded in a write-ahead log under the cache
// directory until its artifact is durably persisted, so a killed server
// re-admits unfinished runs on restart. With -checkpoint-every N, each
// checkpoint-aware sweep point additionally persists a resumable simulation
// snapshot at least every N simulated cycles, and a restarted server resumes
// those points mid-run, bit-identical to an uninterrupted execution.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anton2/internal/serve"
)

const usageHint = "usage: anton2serve [-addr host:port] [-cache dir] [-workers N] (run with -h for the full list)"

var (
	addr          *string
	cacheDir      *string
	workers       *int
	pointParallel *int
	maxQueue      *int
	queueTimeout  *time.Duration
	runTimeout    *time.Duration
	drainTimeout  *time.Duration
	ckptEvery     *uint64
)

func registerFlags(fs *flag.FlagSet) {
	addr = fs.String("addr", "127.0.0.1:8723", "listen address")
	cacheDir = fs.String("cache", "anton2serve-cache", "persistent artifact-cache directory")
	workers = fs.Int("workers", 2, "concurrently executing runs")
	pointParallel = fs.Int("point-parallel", 0, "per-run sweep-point worker pool (0 = one per run)")
	maxQueue = fs.Int("max-queue", 16, "queued runs before submissions get 429")
	queueTimeout = fs.Duration("queue-timeout", 30*time.Second, "max wait for a worker slot before a run fails with 504")
	runTimeout = fs.Duration("run-timeout", 5*time.Minute, "max run execution time before cancellation with 504")
	drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before runs are cancelled")
	ckptEvery = fs.Uint64("checkpoint-every", 0, "persist a resumable per-point snapshot at least every N simulated cycles (0 = off); with the run WAL this makes kill -9 recoverable mid-simulation")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the testable entry point: flag parsing and validation (exit 2 on
// rejection with a one-line hint), then serving until signalled.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("anton2serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reject := func(err error) int {
		fmt.Fprintln(stderr, "anton2serve:", err)
		fmt.Fprintln(stderr, usageHint)
		return 2
	}
	if fs.NArg() > 0 {
		return reject(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *workers < 0 || *pointParallel < 0 || *maxQueue < 0 {
		return reject(fmt.Errorf("workers, point-parallel, and max-queue must be >= 0"))
	}
	if *queueTimeout < 0 || *runTimeout < 0 || *drainTimeout < 0 {
		return reject(fmt.Errorf("timeouts must be >= 0"))
	}

	store, err := serve.OpenStore(*cacheDir)
	if err != nil {
		fmt.Fprintln(stderr, "anton2serve:", err)
		return 1
	}
	srv, err := serve.NewServer(serve.Config{
		Store:            store,
		Workers:          *workers,
		PointParallelism: *pointParallel,
		MaxQueue:         *maxQueue,
		QueueTimeout:     *queueTimeout,
		RunTimeout:       *runTimeout,
		CheckpointEvery:  *ckptEvery,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "anton2serve: "+format+"\n", a...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "anton2serve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "anton2serve:", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	fmt.Fprintf(stderr, "anton2serve: listening on http://%s (cache %s, %d workers)\n",
		ln.Addr(), store.Dir(), *workers)

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "anton2serve:", err)
		return 1
	case <-sigCtx.Done():
	}
	stop()

	fmt.Fprintf(stderr, "anton2serve: draining (up to %v)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := srv.Drain(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "anton2serve: shutdown:", err)
	}
	if drained != nil {
		fmt.Fprintln(stderr, "anton2serve: drain deadline exceeded; runs cancelled")
		return 1
	}
	fmt.Fprintln(stderr, "anton2serve: drained cleanly")
	return 0
}
