package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"anton2/internal/arbiter"
	"anton2/internal/fault"
	"anton2/internal/route"
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
	faultCnt            fault.Counters
	runErr              string
}

func (m *Machine) fingerprint(end uint64, runErr error) fingerprint {
	fp := fingerprint{end: end, injected: m.Injected(), delivered: m.Delivered()}
	for _, ch := range m.chans {
		fp.flitSum += ch.Sent * uint64(ch.ID+1)
		fp.pktSum += ch.Pkts * uint64(ch.ID*7+3)
	}
	if st := m.FaultStatus(); st != nil {
		fp.faultCnt = st.Counters
	}
	if runErr != nil {
		fp.runErr = runErr.Error()
	}
	return fp
}

// finish is the machine's fingerprint at the end of a run, taken before the
// invariant suite — when the config attached one — drains the network and
// finishes, which it must do without a violation.
func (m *Machine) finish(t *testing.T, end uint64, runErr error) fingerprint {
	t.Helper()
	fp := m.fingerprint(end, runErr)
	if err := m.FinishChecks(); err != nil {
		t.Errorf("FinishChecks: %v", err)
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
	return m.finish(t, end, err)
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
// draw site). The sharded runs carry the invariant suite, which the unchecked
// serial reference shows changes nothing, and must finish it clean.
func TestShardedBitIdentical(t *testing.T) {
	variants := map[string]func(*Config){}
	for _, s := range []int{2, 3, 5, 8} {
		s := s
		variants[fmt.Sprintf("shards=%d", s)] = func(c *Config) { c.Shards, c.Check = s, true }
	}
	// Clamping: more shards than nodes must degrade to one shard per node.
	variants["shards=overclamped"] = func(c *Config) { c.Shards, c.Check = 999, true }

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

// TestShardedSourceDriven: lazy traffic sources execute inside shard workers
// — the invariant suite's inject hook with them; steady-state source-driven
// runs must still match serial exactly, and once the sources are cut the
// network must drain to a clean finish.
func TestShardedSourceDriven(t *testing.T) {
	run := func(shards int) fingerprint {
		cfg := DefaultConfig(topo.Shape3(2, 2, 2))
		cfg.Shards, cfg.Check = shards, shards > 0
		m := steadyStateMachine(t, cfg)
		m.Engine.Run(2048)
		for _, node := range m.nodes {
			for _, e := range node.Endpoints {
				e.Source = nil
			}
		}
		return m.finish(t, m.Engine.Now(), nil)
	}
	ref := run(0)
	for _, s := range []int{2, 4} {
		if got := run(s); got != ref {
			t.Fatalf("shards=%d diverged from serial on source-driven traffic:\n  serial:  %+v\n  sharded: %+v", s, ref, got)
		}
	}
}

// TestShardedConfigValidation: sharding is incompatible with the scan engine
// and telemetry, which assume single-threaded stepping, and nothing builds
// with a zero-cycle endpoint pipeline — the constructor must say so, with a
// typed error naming the field, rather than race.
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

// TestCheckedShardsMatchScan: the invariant suite composes with sharded
// stepping. Every mask scenario at 4x4x2 — uniform batch, multicast branches
// cloned and freed inside the workers, the transient-fault mix — runs on two
// shards with Check on under each forced cycle policy, and must end on the
// unchecked scan reference's fingerprint and finish without a violation.
func TestCheckedShardsMatchScan(t *testing.T) {
	shape := topo.Shape3(4, 4, 2)
	for _, sc := range maskScenarios {
		run := func(t *testing.T, cfg Config, policy func(uint64) bool) fingerprint {
			m := MustNew(cfg)
			if policy != nil {
				m.Engine.ForceParallelForTest(policy)
			}
			end, err := m.RunUntilDelivered(sc.inject(m), 4_000_000)
			return m.finish(t, end, err)
		}
		ref := run(t, sc.config(shape, EngineScan, 0), nil)
		for pname, policy := range cyclePolicies {
			t.Run(sc.name+"/"+pname, func(t *testing.T) {
				cfg := sc.config(shape, EngineActive, 2)
				cfg.Check = true
				if got := run(t, cfg, policy); got != ref {
					t.Fatalf("trajectory divergence:\n  scan:    %+v\n  checked: %+v", ref, got)
				}
			})
		}
	}
}

// TestShardedViolationsMatchSerial: what the suite reports does not depend on
// who ran the hooks. A planted fault — a credit counter pushed over capacity,
// which the coordinator's scans see, and two packets on different shards
// whose M-VC is demoted after injection, which two workers' send hooks see in
// the same cycle — yields the same error text from a serial machine and from
// one stepping every cycle on two parallel shards.
func TestShardedViolationsMatchSerial(t *testing.T) {
	demote := func(m *Machine, node int) {
		src := topo.NodeEp{Node: node, Ep: m.Topo.Chip.CoreEndpoints()[0]}
		dst := topo.NodeEp{Node: (node + 1) % m.Topo.NumNodes(), Ep: src.Ep}
		p := m.MakePacket(src, dst, route.Choices{Ties: [3]int8{1, 1, 1}}, route.ClassRequest, 0, 1)
		p.Route.MVC = 1
		m.Endpoint(src).Inject(p) // the suite sees M-VC 1 ...
		p.Route.MVC = 0           // ... and the first send carries 0
	}
	for name, tc := range map[string]struct {
		plant func(*Machine)
		want  string
	}{
		"over-credit":  {func(m *Machine) { m.Chan(0).CorruptCreditsForTest(0, +10) }, "above buffer capacity"},
		"demoted M-VC": {func(m *Machine) { demote(m, 0); demote(m, m.Topo.NumNodes()-1) }, "M-VC demoted 1 -> 0"},
	} {
		run := func(shards int) string {
			cfg := DefaultConfig(topo.Shape3(2, 2, 2))
			cfg.Shards, cfg.Check = shards, true
			m := MustNew(cfg)
			m.Engine.ForceParallelForTest(cyclePolicies["parallel"])
			tc.plant(m)
			injectUniform(m, 4, 7)
			if _, err := m.RunUntilDelivered(m.Injected(), 4_000_000); err != nil {
				t.Fatalf("%s, %d shards: %v", name, shards, err)
			}
			err := m.FinishChecks()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, %d shards: FinishChecks = %v, want a violation saying %q", name, shards, err, tc.want)
			}
			return err.Error()
		}
		if serial, sharded := run(1), run(2); sharded != serial {
			t.Errorf("%s:\n  serial:  %s\n  sharded: %s", name, serial, sharded)
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
