package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"anton2/internal/traffic"
)

// LoadTestConfig drives a self-load-test against a running server. The
// request pool is derived from the repo's own internal/traffic pattern
// generators: every pattern the request grammar accepts contributes
// throughput and faultsweep specs, plus blend and energy sweeps, and draws
// repeat (seeded, with replacement) so the flight/memory/disk cache tiers
// all get exercised — exactly the shape of real experiment traffic, where
// the same sweep is resubmitted far more often than a new one appears.
type LoadTestConfig struct {
	// BaseURL of the server under test, e.g. "http://127.0.0.1:8723".
	BaseURL string
	// Clients is the number of concurrent submitters (default 4).
	Clients int
	// Requests is the total number of submissions (default 64).
	Requests int
	// Seed makes the draw sequence reproducible (default 1).
	Seed int64
	// Shape for the pooled specs (default "2x2x2" — small on purpose: the
	// load test measures the serving layer, not the simulator).
	Shape string
	// Batch is the per-point packet batch for pooled specs (default 32).
	Batch int
	// WaitTimeout bounds one synchronous submission (default 2m).
	WaitTimeout time.Duration
}

func (c *LoadTestConfig) withDefaults() LoadTestConfig {
	out := *c
	if out.Clients <= 0 {
		out.Clients = 4
	}
	if out.Requests <= 0 {
		out.Requests = 64
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Shape == "" {
		out.Shape = "2x2x2"
	}
	if out.Batch <= 0 {
		out.Batch = 32
	}
	if out.WaitTimeout <= 0 {
		out.WaitTimeout = 2 * time.Minute
	}
	return out
}

// LoadReport summarizes a load-test run.
type LoadReport struct {
	Requests   int           `json:"requests"`
	Distinct   int           `json:"distinct_specs"`
	Clients    int           `json:"clients"`
	Errors     int           `json:"errors"`
	ByStatus   map[int]int   `json:"by_status"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"requests_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P90        time.Duration `json:"p90_ns"`
	P99        time.Duration `json:"p99_ns"`
	Max        time.Duration `json:"max_ns"`
	// Metrics is the server's final /metrics?format=json scrape.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// String renders the human-readable report the -loadtest flag prints.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadtest: %d requests (%d distinct specs) x %d clients in %v\n",
		r.Requests, r.Distinct, r.Clients, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "loadtest: throughput %.1f req/s, errors %d\n", r.Throughput, r.Errors)
	fmt.Fprintf(&b, "loadtest: latency p50 %v  p90 %v  p99 %v  max %v\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	codes := make([]int, 0, len(r.ByStatus))
	for c := range r.ByStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "loadtest: status %d x%d\n", c, r.ByStatus[c])
	}
	if r.Metrics != nil {
		for _, k := range []string{
			"anton2serve_cache_hit_rate",
			"anton2serve_cache_hits_total{tier=\"flight\"}",
			"anton2serve_cache_hits_total{tier=\"memory\"}",
			"anton2serve_cache_hits_total{tier=\"disk\"}",
			"anton2serve_cache_misses_total",
			"anton2serve_sim_cycles_total",
		} {
			if v, ok := r.Metrics[k]; ok {
				fmt.Fprintf(&b, "loadtest: %s %g\n", k, v)
			}
		}
	}
	return b.String()
}

// loadPool builds the distinct request set from the traffic generators.
func loadPool(shape string, batch int) []*Request {
	var pool []*Request
	for _, name := range traffic.Names() {
		pool = append(pool, &Request{
			Family: "throughput", Shape: shape, Pattern: name, Batches: []int{batch},
		})
	}
	// A pair of heavier sweeps and the fixed-machine families round out the
	// mix without dominating the wall clock.
	pool = append(pool,
		&Request{Family: "faultsweep", Shape: shape, Pattern: "uniform", Rates: []float64{0, 0.01, 0.05}, Batch: batch},
		&Request{Family: "faultsweep", Shape: shape, Pattern: "tornado", Rates: []float64{0, 0.02}, Batch: batch, Fault: "stall=0.001"},
		&Request{Family: "blend", Shape: shape, Fractions: []float64{0, 0.5, 1}, Weights: "both", Batch: batch},
		&Request{Family: "latency", Shape: shape},
		&Request{Family: "energy", Payload: "random", Flits: 64},
	)
	return pool
}

// LoadTest drives cfg.Requests synchronous submissions (wait=1) at the
// server and reports throughput and latency percentiles. Every response
// body is fully read; non-2xx responses count as errors in the report but
// do not abort the test (overload responses are an expected outcome).
func LoadTest(cfg LoadTestConfig) (*LoadReport, error) {
	c := cfg.withDefaults()
	pool := loadPool(c.Shape, c.Batch)
	for _, q := range pool {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("serve: loadtest pool: %w", err)
		}
	}
	bodies := make([][]byte, len(pool))
	for i, q := range pool {
		b, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	// Pre-draw the whole sequence so worker interleaving cannot change
	// which specs a given seed submits.
	rng := rand.New(rand.NewSource(c.Seed))
	draws := make([]int, c.Requests)
	for i := range draws {
		draws[i] = rng.Intn(len(pool))
	}

	url := strings.TrimRight(c.BaseURL, "/") +
		fmt.Sprintf("/v1/runs?wait=1&timeout_ms=%d", c.WaitTimeout.Milliseconds())
	client := &http.Client{Timeout: c.WaitTimeout + 10*time.Second}

	type sample struct {
		latency time.Duration
		status  int
	}
	samples := make([]sample, c.Requests)
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				status := 0
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[draws[i]]))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
				}
				samples[i] = sample{latency: time.Since(t0), status: status}
			}
		}()
	}
	for i := 0; i < c.Requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	report := &LoadReport{
		Requests: c.Requests,
		Distinct: len(pool),
		Clients:  c.Clients,
		ByStatus: map[int]int{},
		Elapsed:  elapsed,
	}
	lat := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		report.ByStatus[s.status]++
		if s.status < 200 || s.status >= 300 {
			report.Errors++
		}
		lat = append(lat, s.latency)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	report.P50 = percentile(lat, 0.50)
	report.P90 = percentile(lat, 0.90)
	report.P99 = percentile(lat, 0.99)
	report.Max = lat[len(lat)-1]
	if sec := elapsed.Seconds(); sec > 0 {
		report.Throughput = float64(c.Requests) / sec
	}

	if resp, err := client.Get(strings.TrimRight(c.BaseURL, "/") + "/metrics?format=json"); err == nil {
		m := map[string]float64{}
		if json.NewDecoder(resp.Body).Decode(&m) == nil {
			report.Metrics = m
		}
		resp.Body.Close()
	}
	return report, nil
}

// percentile returns the nearest-rank percentile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
