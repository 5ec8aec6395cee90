package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"anton2/internal/core"
)

// Metrics is the server's observable state: monotonic counters plus live
// gauges, all lock-free. Rendered in Prometheus text exposition format by
// /metrics (append ?format=json for a JSON object).
type Metrics struct {
	// Admission.
	QueueDepth   atomic.Int64  // runs waiting for a worker slot
	ActiveRuns   atomic.Int64  // runs holding a worker slot
	Rejected429  atomic.Uint64 // submissions refused: queue full
	Rejected504  atomic.Uint64 // submissions refused: deadline in queue
	RejectedGone atomic.Uint64 // submissions refused: server draining

	// Runs.
	RunsStarted   atomic.Uint64 // simulations actually launched
	RunsCompleted atomic.Uint64
	RunsFailed    atomic.Uint64

	// Request-level cache accounting, by tier.
	HitsFlight atomic.Uint64 // collapsed onto an identical in-flight run
	HitsMemory atomic.Uint64 // served by a completed run still in the run registry
	HitsDisk   atomic.Uint64 // served from the persistent store
	Misses     atomic.Uint64 // required a fresh simulation

	// Point-level accounting across all runs.
	PointsRun    atomic.Uint64
	PointsCached atomic.Uint64
	PointsFailed atomic.Uint64
	SimCycles    atomic.Uint64 // simulated cycles, summed over completed points
}

// hitRate returns hits/(hits+misses) over every cache tier, NaN-free.
func (m *Metrics) hitRate() float64 {
	hits := m.HitsFlight.Load() + m.HitsMemory.Load() + m.HitsDisk.Load()
	total := hits + m.Misses.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// snapshot flattens every metric into name -> value, with the derived
// gauges (utilization, hit rate) computed consistently for both formats.
func (m *Metrics) snapshot(workers int) map[string]float64 {
	active := m.ActiveRuns.Load()
	util := 0.0
	if workers > 0 {
		util = float64(active) / float64(workers)
	}
	return map[string]float64{
		"anton2serve_queue_depth":                       float64(m.QueueDepth.Load()),
		"anton2serve_active_runs":                       float64(active),
		"anton2serve_workers":                           float64(workers),
		"anton2serve_worker_utilization":                util,
		"anton2serve_rejected_total{code=\"429\"}":      float64(m.Rejected429.Load()),
		"anton2serve_rejected_total{code=\"504\"}":      float64(m.Rejected504.Load()),
		"anton2serve_rejected_total{code=\"503\"}":      float64(m.RejectedGone.Load()),
		"anton2serve_runs_total{state=\"started\"}":     float64(m.RunsStarted.Load()),
		"anton2serve_runs_total{state=\"completed\"}":   float64(m.RunsCompleted.Load()),
		"anton2serve_runs_total{state=\"failed\"}":      float64(m.RunsFailed.Load()),
		"anton2serve_cache_hits_total{tier=\"flight\"}": float64(m.HitsFlight.Load()),
		"anton2serve_cache_hits_total{tier=\"memory\"}": float64(m.HitsMemory.Load()),
		"anton2serve_cache_hits_total{tier=\"disk\"}":   float64(m.HitsDisk.Load()),
		"anton2serve_cache_misses_total":                float64(m.Misses.Load()),
		"anton2serve_cache_hit_rate":                    m.hitRate(),
		"anton2serve_points_total{state=\"run\"}":       float64(m.PointsRun.Load()),
		"anton2serve_points_total{state=\"cached\"}":    float64(m.PointsCached.Load()),
		"anton2serve_points_total{state=\"failed\"}":    float64(m.PointsFailed.Load()),
		"anton2serve_sim_cycles_total":                  float64(m.SimCycles.Load()),
		"anton2serve_loads_cached":                      float64(core.CachedLoadsLen()),
	}
}

// renderText renders the Prometheus text exposition format, sorted by name
// for stable scrapes and diffs.
func (m *Metrics) renderText(workers int) string {
	snap := m.snapshot(workers)
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %g\n", n, snap[n])
	}
	return b.String()
}
