package machine

import (
	"errors"
	"fmt"
	"testing"

	"anton2/internal/arbiter"
	"anton2/internal/fault"
	"anton2/internal/topo"
)

// fingerprint is a comparable digest of everything a run can observe: the
// completion cycle, machine-wide packet counts, order-weighted per-channel
// flit and packet totals, and the summed fault counters. Two runs with equal
// fingerprints took the same per-channel, per-cycle trajectory.
type fingerprint struct {
	end                 uint64
	injected, delivered uint64
	flitSum, pktSum     uint64
	egSent, inSent      uint64
	faultCnt            fault.Counters
	runErr              string
}

func (m *Machine) fingerprint(end uint64, runErr error) fingerprint {
	fp := fingerprint{end: end, injected: m.Injected(), delivered: m.Delivered()}
	for _, ch := range m.chans {
		fp.flitSum += ch.Sent * uint64(ch.ID+1)
		fp.pktSum += ch.Pkts * uint64(ch.ID*7+3)
	}
	for _, node := range m.nodes {
		for _, a := range node.Adapters {
			fp.egSent += a.EgSent
			fp.inSent += a.InSent
		}
	}
	if st := m.FaultStatus(); st != nil {
		fp.faultCnt = st.Counters
	}
	if runErr != nil {
		fp.runErr = runErr.Error()
	}
	return fp
}

// cyclePolicies are the forced per-cycle choices of a sharded engine
// (sim.Engine.ForceParallelForTest): every cycle serial, every cycle
// parallel, and alternating by cycle parity.
var cyclePolicies = map[string]func(now uint64) bool{
	"serial":      func(uint64) bool { return false },
	"parallel":    func(uint64) bool { return true },
	"alternating": func(now uint64) bool { return now&1 == 1 },
}

// buildForTest is MustNew for the differential tests. Their shapes are too
// small to ever schedule sim.ParallelMinReady components in a cycle, so a
// sharded machine's engine is forced to alternate parallel and serial cycles:
// the staging paths, the direct paths and every transition between them run.
func buildForTest(cfg Config) *Machine {
	m := MustNew(cfg)
	m.Engine.ForceParallelForTest(cyclePolicies["alternating"])
	return m
}

// runWorkload drives a uniform-random burst through a machine built from cfg
// and returns its fingerprint. Runs that end in an error (fault budget
// exhaustion, watchdog) fingerprint the error too — divergent failure cycles
// count as divergence.
func runWorkload(t *testing.T, cfg Config, perEp int) fingerprint {
	t.Helper()
	m := buildForTest(cfg)
	total := injectUniform(m, perEp, 1234)
	end, err := m.RunUntilDelivered(total, 4_000_000)
	return m.fingerprint(end, err)
}

// diffConfigs pins bit-identity between a reference config and variants that
// must not change results.
func diffConfigs(t *testing.T, name string, base Config, perEp int, variants map[string]func(*Config)) {
	t.Helper()
	ref := runWorkload(t, base, perEp)
	for vn, mutate := range variants {
		t.Run(name+"/"+vn, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if got := runWorkload(t, cfg, perEp); got != ref {
				t.Fatalf("trajectory divergence:\n  ref (%s): %+v\n  got (%s): %+v", name, ref, vn, got)
			}
		})
	}
}

// TestEngineScanVsActiveBitIdentical: the active-set scheduler must reproduce
// the scan loop's results exactly — same completion cycle, same per-channel
// flit history — on plain and fault-injected workloads.
func TestEngineScanVsActiveBitIdentical(t *testing.T) {
	variants := map[string]func(*Config){
		"scan":   func(c *Config) { c.Engine = EngineScan },
		"active": func(c *Config) { c.Engine = EngineActive },
	}

	plain := DefaultConfig(topo.Shape3(2, 2, 2))
	diffConfigs(t, "plain", plain, 6, variants)

	faulty := DefaultConfig(topo.Shape3(2, 2, 2))
	faulty.Fault = &fault.Spec{
		CorruptRate:    0.02,
		StallRate:      0.001,
		StallCycles:    16,
		CreditLossRate: 0.01,
		FailLinks:      1,
	}
	diffConfigs(t, "faultmix", faulty, 6, variants)
}

// TestShardedBitIdentical: sharded stepping must be bit-identical to serial
// for every shard count, including under the full transient-fault mix (whose
// RNG streams are drawn from per-link state on whichever shard owns the
// draw site).
func TestShardedBitIdentical(t *testing.T) {
	variants := map[string]func(*Config){}
	for _, s := range []int{2, 3, 5, 8} {
		s := s
		variants[fmt.Sprintf("shards=%d", s)] = func(c *Config) { c.Shards = s }
	}
	// Clamping: more shards than nodes must degrade to one shard per node.
	variants["shards=overclamped"] = func(c *Config) { c.Shards = 999 }

	plain := DefaultConfig(topo.Shape3(2, 2, 2))
	diffConfigs(t, "plain", plain, 6, variants)

	faulty := DefaultConfig(topo.Shape3(2, 2, 2))
	faulty.Fault = &fault.Spec{
		CorruptRate:    0.02,
		StallRate:      0.001,
		StallCycles:    16,
		CreditLossRate: 0.01,
		FailLinks:      1,
	}
	diffConfigs(t, "faultmix", faulty, 6, variants)
}

// TestSleepingAdapterTimeoutParity: with every frame corrupted, the receiver
// nacks once, the retransmission is corrupted too (nack already armed), and
// the sender adapter goes fully idle — no queued packets, no pending replay —
// until its go-back-N timeout. The active engine must fire that timeout on
// exactly the cycle the scan loop does (via the Deadline wake), all the way
// to the identical budget-exhaustion failure cycle; sharded stepping must
// agree too.
func TestSleepingAdapterTimeoutParity(t *testing.T) {
	run := func(mutate func(*Config)) fingerprint {
		cfg := DefaultConfig(topo.Shape3(2, 2, 2))
		cfg.Fault = &fault.Spec{CorruptRate: 1, RetryLimit: 4}
		mutate(&cfg)
		m := buildForTest(cfg)
		total := injectUniform(m, 2, 3)
		end, err := m.RunUntilDelivered(total, 4_000_000)
		var be *fault.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want *fault.BudgetError", err)
		}
		fp := m.fingerprint(end, err)
		if fp.faultCnt.Timeouts == 0 {
			t.Fatal("no go-back-N timeouts fired; the scenario must exercise the sleeping-adapter deadline wake")
		}
		return fp
	}
	ref := run(func(c *Config) { c.Engine = EngineScan })
	for name, mutate := range map[string]func(*Config){
		"active":   func(c *Config) { c.Engine = EngineActive },
		"sharded4": func(c *Config) { c.Shards = 4 },
	} {
		if got := run(mutate); got != ref {
			t.Fatalf("%s diverged from scan on the timeout path:\n  scan: %+v\n  %s:  %+v", name, ref, name, got)
		}
	}
}

// TestShardedSourceDriven: lazy traffic sources execute inside shard workers;
// steady-state source-driven runs must still match serial exactly.
func TestShardedSourceDriven(t *testing.T) {
	run := func(shards int) fingerprint {
		cfg := DefaultConfig(topo.Shape3(2, 2, 2))
		cfg.Shards = shards
		m := steadyStateMachine(t, cfg)
		m.Engine.Run(2048)
		return m.fingerprint(m.Engine.Now(), nil)
	}
	ref := run(0)
	for _, s := range []int{2, 4} {
		if got := run(s); got != ref {
			t.Fatalf("shards=%d diverged from serial on source-driven traffic:\n  serial:  %+v\n  sharded: %+v", s, ref, got)
		}
	}
}

// TestShardedConfigValidation: sharding is incompatible with the scan engine,
// the invariant suite, telemetry, and a zero-cycle endpoint pipeline — all of
// which assume single-threaded stepping — and the constructor must say so,
// with a typed error naming the field, rather than race.
func TestShardedConfigValidation(t *testing.T) {
	base := DefaultConfig(topo.Shape3(2, 2, 2))
	if _, err := New(base); err != nil {
		t.Errorf("base config must build: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"sharded + scan engine", func(c *Config) { c.Shards, c.Engine = 2, EngineScan }, "Engine"},
		{"sharded + invariant suite", func(c *Config) { c.Shards, c.Check = 2, true }, "Check"},
		{"zero endpoint pipeline", func(c *Config) { c.EndpointPipeline = 0 }, "EndpointPipeline"},
		{"unknown engine mode", func(c *Config) { c.Engine = "warp" }, "Engine"},
	} {
		cfg := base
		tc.mutate(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("expected error for %s", tc.name)
		} else if got := refusedField(t, err); got != tc.field {
			t.Errorf("%s: refused Config.%s, want Config.%s", tc.name, got, tc.field)
		}
	}
}

// TestActiveStepMachineZeroAllocs pins the allocation-free contract of the
// cycle kernel: a warmed steady-state machine stepping under the active
// engine must not allocate — the arena-carved VC queues, the wake wheel, the
// channel pipes and both arbiter flavors all reuse capacity. (The
// inverse-weighted row is what catches a per-grant allocation in
// arbiter.PrioArb.)
func TestActiveStepMachineZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		kind   arbiter.Kind
		shards int
	}{
		{arbiter.KindRoundRobin, 0},
		{arbiter.KindInverseWeighted, 0},
		// Sharded, every cycle parallel: the per-shard free lists, stage lists
		// and deferred-delivery lists reuse capacity, and the shard goroutines
		// start from closures built once.
		{arbiter.KindRoundRobin, 2},
	} {
		kind := tc.kind
		cfg := DefaultConfig(topo.Shape3(2, 2, 2))
		cfg.Engine = EngineActive
		cfg.Arbiter = kind
		cfg.Shards = tc.shards
		if kind == arbiter.KindInverseWeighted {
			cfg = inverseWeighted(cfg)
		}
		m := steadyStateMachine(t, cfg)
		if kind == arbiter.KindInverseWeighted {
			// Inverse-weighted service fills the buffers more slowly: the
			// in-flight population (and so the packet pool) is still
			// growing after the shared warm-up.
			m.Engine.Run(8192)
		}
		if avg := testing.AllocsPerRun(500, func() { m.Engine.Step() }); avg != 0 {
			t.Errorf("%s shards=%d: active-engine Step allocates %.2f objects/cycle, want 0", kind, tc.shards, avg)
		}
	}
}
