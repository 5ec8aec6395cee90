package core

import (
	"fmt"
	"io"

	"anton2/internal/area"
	"anton2/internal/ckpt"
	"anton2/internal/deadlock"
	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/stats"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// The routecompare experiment family scores every registered routing
// strategy head-to-head: saturation throughput and delivery latency from
// measurement runs, VC/buffer area cost from the internal/area model, the
// static deadlock verdict from internal/deadlock, and faultsweep-style
// degradation behavior under permanent link outages. One point = one
// (strategy, failed-link count) cell; a sweep covers the whole registry.

// routeCompareConfig describes one routecompare point.
type routeCompareConfig struct {
	// Machine carries the strategy under test in its Scheme field.
	Machine machine.Config
	// Pattern generates the measured traffic.
	Pattern traffic.Pattern
	// Batch is the number of packets each core sends.
	Batch int
}

// verifiesDeadlock reports whether a point runs the static analyzer on its
// shape and records the verdict: a point with no failed links does, and its
// verdict stands for the strategy at every fail-link count.
func verifiesDeadlock(mc machine.Config) bool { return mc.Fault == nil || mc.Fault.FailLinks == 0 }

// routeComparePoint is one measured routecompare cell.
type routeComparePoint struct {
	Strategy  string `json:"strategy"`
	FailLinks int    `json:"fail_links"`

	// Analytic strategy profile.
	MeshVCs  int `json:"mesh_vcs"`
	TorusVCs int `json:"torus_vcs"`
	// AreaVsAnton is the network-area ratio of this strategy's VC
	// provisioning against the paper's scheme (internal/area).
	AreaVsAnton float64 `json:"area_vs_anton"`
	// DeadlockVerified/DeadlockFree report the static analyzer verdict of a
	// point with no failed links.
	DeadlockVerified bool `json:"deadlock_verified,omitempty"`
	DeadlockFree     bool `json:"deadlock_free,omitempty"`
	// SatRate is the strategy's own analytic saturation rate
	// (packets/cycle/core) under the pattern; MeanTorusHops its analytic
	// mean inter-node path length (path stretch shows up here).
	SatRate       float64 `json:"sat_rate"`
	MeanTorusHops float64 `json:"mean_torus_hops"`

	// Measured.
	Batch  int    `json:"batch"`
	Cycles uint64 `json:"cycles"`
	// Throughput is normalized by the strategy's own saturation rate;
	// PacketsPerKCycle is the absolute per-core delivery rate x1000, the
	// cross-strategy comparison axis.
	Throughput       float64 `json:"throughput"`
	PacketsPerKCycle float64 `json:"packets_per_kcycle"`
	MeanLatency      float64 `json:"mean_latency"`
	P99Latency       float64 `json:"p99_latency"`
	// Degradation columns: static strategies concede DegradedRun when
	// links die (Rerouted counts emergency reroutes); a fault-aware
	// strategy absorbs the same outages (RoutedNative) un-degraded.
	DegradedRun  bool   `json:"degraded_run,omitempty"`
	Rerouted     uint64 `json:"rerouted,omitempty"`
	RoutedNative uint64 `json:"routed_native,omitempty"`
}

// SimCycles lets exp record simulated cycle counts in artifacts.
func (p routeComparePoint) SimCycles() uint64 { return p.Cycles }

// Degraded implements exp.degrader for result classification.
func (p routeComparePoint) Degraded() bool { return p.DegradedRun }

// runRouteComparePoint executes one routecompare measurement under a
// checkpoint config (see runBatch).
func runRouteComparePoint(cfg routeCompareConfig, rc ckpt.RunConfig) (routeComparePoint, error) {
	scheme := cfg.Machine.Strategy()
	pt := routeComparePoint{
		Strategy:    scheme.Name(),
		MeshVCs:     scheme.MeshVCs(),
		TorusVCs:    scheme.TorusVCs(),
		AreaVsAnton: area.RatioVsAnton(scheme),
		Batch:       cfg.Batch,
	}
	if cfg.Machine.Fault != nil {
		pt.FailLinks = cfg.Machine.Fault.FailLinks
	}
	measured, satRate, err := patternSatRate(cfg.Machine, cfg.Pattern)
	if err != nil {
		return pt, err
	}
	pt.SatRate = satRate
	pt.MeanTorusHops = measured.MeanTorusHops

	m, end, acc, err := runBatch(latencyBatch(cfg.Machine, "rc", cfg.Pattern, cfg.Batch, satRate,
		routeCompareSpec(cfg), fmt.Sprintf("routecompare %s (faillinks=%d)", pt.Strategy, pt.FailLinks)), rc)
	if err != nil {
		return pt, err
	}
	if verifiesDeadlock(cfg.Machine) {
		pt.DeadlockVerified = true
		pt.DeadlockFree = deadlock.Verify(m.RouteConfig()) == nil
	}

	pt.Cycles = end
	pt.Throughput = float64(cfg.Batch) / float64(end) / satRate
	pt.PacketsPerKCycle = float64(cfg.Batch) / float64(end) * 1000
	pt.MeanLatency = stats.Mean(acc.Latencies)
	pt.P99Latency = stats.Percentile(acc.Latencies, 99)
	if st := acc.fault; st != nil {
		pt.DegradedRun = st.Degraded
		pt.Rerouted = st.Counters.Rerouted
		pt.RoutedNative = st.Counters.RoutedNative
	}
	return pt, nil
}

// routeCompareSpec canonically identifies one routecompare point. The
// strategy enters the key through addMachine's scheme name — distinct
// strategies can never share a cached artifact — and the fail-link count
// through the fault spec canonical.
func routeCompareSpec(cfg routeCompareConfig) *exp.Spec {
	s := exp.NewSpec("routecompare")
	addMachine(s, cfg.Machine)
	return s.Add("pattern", cfg.Pattern.Name()).
		Add("batch", cfg.Batch).
		Add("maxcycles", noCycleBound).
		Add("verify", verifiesDeadlock(cfg.Machine))
}

// routeCompareJob wraps one runRouteComparePoint call for the orchestrator.
func routeCompareJob(cfg routeCompareConfig) exp.Job {
	return pointJob(routeCompareSpec(cfg), cfg, func(c *routeCompareConfig) *machine.Config { return &c.Machine }, runRouteComparePoint, true)
}

// The routecompare family. Axes: Shape, Pattern, Batch, Strategies x FailLinks
// (the grid: every strategy at every fail-link count, 0 = the healthy cell,
// which also carries the static deadlock verdict). Strategies default to the
// whole registry in name order, so the job list — and the artifact — is
// deterministic. The fault-aware strategy (angara) should absorb the outages
// un-degraded (routed-native counts) where the static schemes concede a
// degraded run (emergency reroutes).
func init() {
	register(&Family{
		Name:    "routecompare",
		Figure:  "routecompare",
		Aliases: []string{"routing"},
		Title:   "Routing strategies: head-to-head comparison",
		Paper:   "pluggable strategies; n+1 VCs (anton) vs 2n (baseline) vs 1 (vcless turn-restricted) vs fault-aware graph routing (angara)",
		Full:    []Axes{{Shape: topo.Shape3(4, 4, 2), Batch: 64, FailLinks: []int{0, 1, 2, 4}}},
		Quick:   []Axes{{Shape: topo.Shape3(3, 3, 2), Batch: 16, FailLinks: []int{0, 2}}},
		Check: func(a *Axes) error {
			if err := checkShape(a); err != nil {
				return err
			}
			checkPattern(a)
			if err := checkBatch(a); err != nil {
				return err
			}
			checkStrategies(a)
			if len(a.FailLinks) == 0 {
				a.FailLinks = []int{0}
			}
			for _, n := range a.FailLinks {
				if n < 0 {
					return badAxis("faillinks", "must be >= 0, got %d", n)
				}
			}
			return nil
		},
		Points: func(a Axes) (int, string) { return len(a.Strategies) * len(a.FailLinks), "faillinks" },
		Spec: func(a Axes) *exp.Spec {
			return exp.NewSpec("serve-routecompare").Add("shape", a.Shape).Add("pattern", a.Pattern.Name()).
				Add("batch", a.Batch).Add("strategies", joinBar(strategyNames(a.Strategies))).
				Add("faillinks", joinBar(a.FailLinks))
		},
		Jobs: func(a Axes, mutate func(*machine.Config)) []exp.Job {
			jobs := make([]exp.Job, 0, len(a.Strategies)*len(a.FailLinks))
			for _, strat := range a.Strategies {
				for _, n := range a.FailLinks {
					mc := machine.DefaultConfig(a.Shape)
					mc.Scheme = strat
					if n > 0 {
						mc.Fault = &fault.Spec{FailLinks: n}
					}
					mutate(&mc)
					jobs = append(jobs, routeCompareJob(routeCompareConfig{Machine: mc, Pattern: a.Pattern, Batch: a.Batch}))
				}
			}
			return jobs
		},
		Render: renderRouteCompare,
	})
}

func renderRouteCompare(w io.Writer, _ []Axes, rs []exp.Result) {
	fmt.Fprintf(w, "measured: %-12s %5s %14s %5s %6s %6s %6s %10s %9s %8s %8s %7s\n",
		"strategy", "fail", "deadlock", "tvcs", "area", "hops", "thpt", "pkts/kcyc", "mean lat", "p99 lat", "reroute", "outcome")
	last := ""
	for _, r := range rs {
		if r.Err != nil {
			fmt.Fprintf(w, "          %-12s FAILED: %v\n", last, r.Err)
			continue
		}
		pt := r.Value.(routeComparePoint)
		if pt.Strategy != last && last != "" {
			fmt.Fprintln(w)
		}
		last = pt.Strategy
		verdict := "-"
		if pt.DeadlockVerified {
			verdict = "CYCLE FOUND"
			if pt.DeadlockFree {
				verdict = "deadlock-free"
			}
		}
		outcome := "ok"
		if pt.DegradedRun {
			outcome = "degraded"
		}
		reroute := fmt.Sprintf("%d", pt.Rerouted)
		if pt.RoutedNative > 0 {
			reroute = fmt.Sprintf("%dn", pt.RoutedNative)
		}
		fmt.Fprintf(w, "          %-12s %5d %14s %5d %6.3f %6.2f %6.3f %10.2f %9.1f %8.0f %8s %7s\n",
			pt.Strategy, pt.FailLinks, verdict, pt.TorusVCs, pt.AreaVsAnton, pt.MeanTorusHops,
			pt.Throughput, pt.PacketsPerKCycle, pt.MeanLatency, pt.P99Latency, reroute, outcome)
	}
}
