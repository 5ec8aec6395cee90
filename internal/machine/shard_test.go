package machine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"anton2/internal/arbiter"
	"anton2/internal/fault"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// fingerprint is a comparable digest of everything a run can observe: the
// completion cycle, machine-wide packet counts, order-weighted per-channel
// flit and packet totals, the summed fault counters and, where the run
// drained (runWorkload), the clock Drain stopped at and its result. Two runs
// with equal fingerprints took the same per-channel, per-cycle trajectory.
type fingerprint struct {
	end                 uint64
	injected, delivered uint64
	flitSum, pktSum     uint64
	faultCnt            fault.Counters
	runErr              string
	drainEnd            uint64
	quiesced            bool
}

func (m *Machine) fingerprint(end uint64, runErr error) fingerprint {
	fp := fingerprint{end: end, injected: m.Injected(), delivered: m.Delivered()}
	for i := range m.chans {
		ch := &m.chans[i]
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

// buildForTest is MustNew for the differential tests. A sharded machine's
// engine is forced to alternate parallel and serial cycles, whatever each
// cycle schedules: the staging paths, the direct paths and every transition
// between them run.
func buildForTest(cfg Config) *Machine {
	m := MustNew(cfg)
	m.Engine.ForceParallelForTest(cyclePolicies["alternating"])
	return m
}

// runWorkload drives a uniform-random burst through a machine built from cfg,
// then, unless the run failed, through the phase barrier (Drain), and returns
// its fingerprint. Runs that end in an error (fault budget exhaustion,
// watchdog) fingerprint the error too — divergent failure cycles count as
// divergence.
func runWorkload(t *testing.T, cfg Config, perEp int) fingerprint {
	t.Helper()
	m := buildForTest(cfg)
	total := injectUniform(m, perEp, 1234)
	end, err := m.RunUntilDelivered(total, 4_000_000)
	quiesced := err == nil && m.Drain()
	drainEnd := m.Engine.Now()
	fp := m.finish(t, end, err)
	fp.drainEnd, fp.quiesced = drainEnd, quiesced
	return fp
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

// faultMix is the default machine on shape under the full fault mix:
// corruption, stalls, credit loss and a permanent link outage.
func faultMix(shape topo.TorusShape) Config {
	cfg := DefaultConfig(shape)
	cfg.Fault = &fault.Spec{CorruptRate: 0.02, StallRate: 0.001, CreditLossRate: 0.01, FailLinks: 1}
	return cfg
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

	diffConfigs(t, "faultmix", faultMix(topo.Shape3(2, 2, 2)), 6, variants)
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

	diffConfigs(t, "faultmix", faultMix(topo.Shape3(2, 2, 2)), 6, variants)
}

// TestShardedTelemetryMatchesScan: the telemetry collector composes with
// sharded stepping. A plain burst, the fault mix and a multicast run each
// report — window series, occupancy, grant shares, packet traces, fault
// counters — the same JSON bytes on two shards under every forced cycle
// policy as on the scan reference. The bursts come from endpoint Sources, so
// node 0's injections, which the trace list records, run on a shard worker in
// every parallel cycle; a window closes during each burst, and another after
// it.
func TestShardedTelemetryMatchesScan(t *testing.T) {
	shape := topo.Shape3(2, 2, 2)
	mcast := DefaultConfig(shape)
	mcast.Multicast = maskGroups(topo.MustMachine(shape))
	for name, base := range map[string]Config{"plain": DefaultConfig(shape), "faultmix": faultMix(shape), "multicast": mcast} {
		report := func(t *testing.T, engine string, shards int, policy func(uint64) bool) []byte {
			cfg := base
			cfg.Engine, cfg.Shards = engine, shards
			var r *telemetry.Report
			cfg.Telemetry = &telemetry.Options{Sink: func(rep *telemetry.Report) { r = rep }}
			m := MustNew(cfg)
			if policy != nil {
				m.Engine.ForceParallelForTest(policy)
			}
			total := sourceUniform(m, 96)
			if cfg.Multicast != nil {
				for n := 0; n < m.Topo.NumNodes(); n++ {
					total += uint64(m.InjectMulticast(topo.NodeEp{Node: n, Ep: m.Topo.Chip.CoreEndpoints()[1]}, n, route.ClassRequest, 0))
				}
			}
			end, err := m.RunUntilDelivered(total, 4_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if end <= 1024 {
				t.Fatalf("burst over at cycle %d: no window closed during it", end)
			}
			m.Engine.Run(1024)
			if err := m.FinishChecks(); err != nil {
				t.Fatal(err)
			}
			if len(r.Traces) != 4 {
				t.Fatalf("%d packet traces, want 4", len(r.Traces))
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		ref := report(t, EngineScan, 0, nil)
		for pname, policy := range cyclePolicies {
			t.Run(name+"/"+pname, func(t *testing.T) {
				if got := report(t, EngineActive, 2, policy); string(got) != string(ref) {
					t.Errorf("report of %d bytes differs from the scan reference's %d", len(got), len(ref))
				}
			})
		}
	}
}

// sourceUniform makes every core endpoint the Source of perEp uniform-random
// request packets, each drawn on the endpoint's own RNG, and returns the
// total.
func sourceUniform(m *Machine, perEp int) uint64 {
	cores := m.Topo.Chip.CoreEndpoints()
	for n := 0; n < m.Topo.NumNodes(); n++ {
		for _, ep := range cores {
			src, left := topo.NodeEp{Node: n, Ep: ep}, perEp
			rng := rand.New(rand.NewSource(int64(1 + n*64 + ep)))
			m.Endpoint(src).Source = func() *packet.Packet {
				if left == 0 {
					return nil
				}
				left--
				return m.MakeRandomPacket(src, traffic.Uniform{}.Dest(m.Topo, src, rng), route.ClassRequest, 0, rng)
			}
		}
	}
	return uint64(m.Topo.NumNodes() * len(cores) * perEp)
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
		cfg.Fault = &fault.Spec{CorruptRate: 1}
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
		for i := range m.nodes {
			node := &m.nodes[i]
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

// TestShardedConfigValidation: nothing builds with a zero-cycle endpoint
// pipeline — the constructor must say so, with a typed error naming the
// field, rather than race — and New builds auto (Shards 0) serial: resolving
// it is core.BuildMachine's. The refusals on the mode axes are the mode
// lattice's (core's TestConfigLattice).
func TestShardedConfigValidation(t *testing.T) {
	base := DefaultConfig(topo.Shape3(2, 2, 2))
	if m, err := New(base); err != nil || len(m.shards) != 1 {
		t.Errorf("auto config: %v, want it built serial", err)
	}
	base.EndpointPipeline = 0
	if _, err := New(base); refusedField(t, err) != "EndpointPipeline" {
		t.Errorf("zero endpoint pipeline: %v, want Config.EndpointPipeline refused", err)
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
// one stepping every cycle on two parallel shards. So do two demoted packets
// that endpoint Sources make inside the first, parallel, cycle: a message
// names a packet by what it is, not by when a worker allocated it.
func TestShardedViolationsMatchSerial(t *testing.T) {
	endpoints := func(m *Machine, node int) (src, dst topo.NodeEp) {
		src = topo.NodeEp{Node: node, Ep: m.Topo.Chip.CoreEndpoints()[0]}
		return src, topo.NodeEp{Node: (node + 1) % m.Topo.NumNodes(), Ep: src.Ep}
	}
	demote := func(m *Machine, node int) {
		src, dst := endpoints(m, node)
		p := m.MakePacket(src, dst, route.Choices{Ties: [3]int8{1, 1, 1}}, route.ClassRequest, 0, 1)
		p.Route.MVC = 1
		m.Endpoint(src).Inject(p) // the suite sees M-VC 1 ...
		p.Route.MVC = 0           // ... and the first send carries 0
	}
	// sourceDemote is demote by the endpoint's Source: its first call makes
	// the packet, which the endpoint injects; its second demotes it and ends
	// the stream.
	sourceDemote := func(m *Machine, node int) {
		src, dst := endpoints(m, node)
		var p *packet.Packet
		m.Endpoint(src).Source = func() *packet.Packet {
			if p != nil {
				p.Route.MVC = 0
				return nil
			}
			p = m.MakePacket(src, dst, route.Choices{Ties: [3]int8{1, 1, 1}}, route.ClassRequest, 0, 1)
			p.Route.MVC = 1
			return p
		}
	}
	for name, tc := range map[string]struct {
		plant func(*Machine)
		want  string
	}{
		"over-credit":               {func(m *Machine) { m.Chan(0).CorruptCreditsForTest(0, +10) }, "above buffer capacity"},
		"demoted M-VC":              {func(m *Machine) { demote(m, 0); demote(m, m.Topo.NumNodes()-1) }, "M-VC demoted 1 -> 0"},
		"demoted M-VC from Sources": {func(m *Machine) { sourceDemote(m, 0); sourceDemote(m, m.Topo.NumNodes()-1) }, "M-VC demoted 1 -> 0"},
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
// arbiter.prioArb.)
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
		if avg := testing.AllocsPerRun(500, func() { m.Engine.Run(1) }); avg != 0 {
			t.Errorf("%s shards=%d: active-engine Run(1) allocates %.2f objects/cycle, want 0", kind, tc.shards, avg)
		}
	}

	// Multicast replication: an adapter clones the branches a torus arrival
	// fans out into from the free lists and links them as it makes them, so
	// once one batch of multicast groups has drained into the free lists, a
	// second batch injects, replicates, travels and delivers without
	// allocating. AllocsPerRun's first, uncounted call is the first batch;
	// one counted call is one whole batch, because the average it reports
	// is rounded down.
	for _, shards := range []int{0, 2} {
		m := MustNew(maskScenario{mcast: true}.config(topo.Shape3(2, 2, 2), EngineActive, shards))
		m.Engine.ForceParallelForTest(cyclePolicies["parallel"])
		want, batches := uint64(0), 0
		batch := func() {
			for n := 0; n < m.Topo.NumNodes(); n++ {
				src := topo.NodeEp{Node: n, Ep: m.Topo.Chip.CoreEndpoints()[n%4]}
				for i := 0; i < 3; i++ {
					want += uint64(m.InjectMulticast(src, n, route.ClassRequest, 0))
				}
			}
			for m.Delivered() < want && m.Engine.Now() < 100_000 {
				m.Engine.Run(1)
			}
			batches++
		}
		if avg := testing.AllocsPerRun(1, batch); avg != 0 {
			t.Errorf("multicast shards=%d: a second batch allocates %v objects, want 0", shards, avg)
		}
		if batches != 2 || m.Delivered() != want {
			t.Errorf("multicast shards=%d: %d batches delivered %d of %d packets", shards, batches, m.Delivered(), want)
		}
	}
}
