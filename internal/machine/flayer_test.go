package machine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anton2/internal/fault"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// injectUniform loads every core endpoint with perEp uniform-random packets
// and returns the total injected.
func injectUniform(m *Machine, perEp int, seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	pat := traffic.Uniform{}
	cores := m.Topo.Chip.CoreEndpoints()
	total := uint64(0)
	for n := 0; n < m.Topo.NumNodes(); n++ {
		for _, ep := range cores {
			src := topo.NodeEp{Node: n, Ep: ep}
			for i := 0; i < perEp; i++ {
				dst := pat.Dest(m.Topo, src, rng)
				m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
				total++
			}
		}
	}
	return total
}

// TestFaultCorruptionAllDelivered is the tentpole property test: under
// transient flit corruption every corrupted frame is detected and
// retransmitted, every packet is delivered exactly once, and the full
// invariant suite (flit conservation, credit accounting) holds throughout.
func TestFaultCorruptionAllDelivered(t *testing.T) {
	for _, rate := range []float64{0.005, 0.05} {
		t.Run(fmt.Sprintf("rate=%g", rate), func(t *testing.T) {
			cfg := DefaultConfig(topo.Shape3(2, 2, 2))
			cfg.Check = true
			cfg.Fault = &fault.Spec{CorruptRate: rate}
			m := MustNew(cfg)
			total := injectUniform(m, 8, 42)
			if _, err := m.RunUntilDelivered(total, 4_000_000); err != nil {
				t.Fatalf("after %d/%d deliveries: %v", m.Delivered(), total, err)
			}
			if m.Delivered() != total {
				t.Fatalf("delivered %d, want %d", m.Delivered(), total)
			}
			if err := m.FinishChecks(); err != nil {
				t.Fatalf("invariants violated under corruption: %v", err)
			}
			st := m.FaultStatus()
			if st == nil {
				t.Fatal("FaultStatus() = nil with fault spec attached")
			}
			c := st.Counters
			if c.CorruptInjected == 0 {
				t.Fatal("no corruption injected; rate too low for this schedule")
			}
			if c.CorruptDetected != c.CorruptInjected {
				t.Errorf("detected %d of %d injected corruptions, want all", c.CorruptDetected, c.CorruptInjected)
			}
			if c.Retransmits < c.CorruptDetected {
				t.Errorf("retransmits %d < detected corruptions %d; go-back-N must replay every loss", c.Retransmits, c.CorruptDetected)
			}
		})
	}
}

// TestFaultStallsAndCreditLoss exercises the remaining transient fault kinds
// together: link stalls and dropped credit messages, plus background
// corruption. Everything must still deliver, every dropped credit must be
// restored by the resync audit, and the invariant suite must stay clean.
func TestFaultStallsAndCreditLoss(t *testing.T) {
	cfg := DefaultConfig(topo.Shape3(2, 2, 2))
	cfg.Check = true
	cfg.Fault = &fault.Spec{
		CorruptRate:    0.01,
		StallRate:      0.002,
		CreditLossRate: 0.02,
	}
	m := MustNew(cfg)
	total := injectUniform(m, 8, 7)
	if _, err := m.RunUntilDelivered(total, 4_000_000); err != nil {
		t.Fatalf("after %d/%d deliveries: %v", m.Delivered(), total, err)
	}
	if err := m.FinishChecks(); err != nil {
		t.Fatalf("invariants violated under stalls + credit loss: %v", err)
	}
	c := m.FaultStatus().Counters
	if c.StallsInjected == 0 {
		t.Error("no stalls injected; rate too low for this schedule")
	}
	if c.CreditsDropped == 0 {
		t.Error("no credits dropped; rate too low for this schedule")
	}
	if c.CreditsRestored != c.CreditsDropped {
		t.Errorf("restored %d of %d dropped credits, want all (resync audit leak)", c.CreditsRestored, c.CreditsDropped)
	}
}

// TestFaultPermanentLinkDegraded: with permanent link outages the machine
// reroutes injected traffic around the failed links and completes in a
// degraded state instead of deadlocking.
func TestFaultPermanentLinkDegraded(t *testing.T) {
	cfg := DefaultConfig(topo.Shape3(2, 2, 2))
	cfg.Check = true
	cfg.Fault = &fault.Spec{FailLinks: 2}
	m := MustNew(cfg)
	total := injectUniform(m, 8, 13)
	if _, err := m.RunUntilDelivered(total, 4_000_000); err != nil {
		t.Fatalf("degraded run failed after %d/%d deliveries: %v", m.Delivered(), total, err)
	}
	if err := m.FinishChecks(); err != nil {
		t.Fatalf("invariants violated in degraded run: %v", err)
	}
	st := m.FaultStatus()
	if !st.Degraded {
		t.Error("run with failed links not reported degraded")
	}
	if got := len(m.flt.failedList); got != 2 {
		t.Fatalf("failed links = %d entries, want 2", got)
	}
	for _, id := range m.flt.failedList {
		if sent := m.Chan(id).FlitsSent(); sent != 0 {
			t.Errorf("failed link %s carried %d flits, want 0", m.Chan(id).Name(m.Topo), sent)
		}
	}
	if st.Counters.Rerouted == 0 {
		t.Error("no packets rerouted; with 2 failed links on a 2x2x2 torus some preferred routes must have been steered away")
	}
	if st.Counters.Unroutable != 0 {
		t.Errorf("%d unroutable packets on a single-outage-per-slice schedule", st.Counters.Unroutable)
	}
}

// TestFaultBudgetExhaustion: a hopeless link (every frame corrupted) must
// end the run with a degraded BudgetError, not a panic or a watchdog
// deadlock.
func TestFaultBudgetExhaustion(t *testing.T) {
	cfg := DefaultConfig(topo.Shape3(2, 2, 2))
	cfg.Fault = &fault.Spec{CorruptRate: 1}
	m := MustNew(cfg)
	total := injectUniform(m, 2, 3)
	_, err := m.RunUntilDelivered(total, 4_000_000)
	var be *fault.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *fault.BudgetError", err)
	}
	if !be.Degraded() {
		t.Error("budget error must classify as degraded")
	}
	var deg interface{ Degraded() bool }
	if !errors.As(err, &deg) {
		t.Error("budget error must satisfy the Degraded interface for the experiment harness")
	}
}

// TestFaultDeterminism: identical configs (including the full fault mix)
// produce identical completion cycles, flit counts, and fault counters.
func TestFaultDeterminism(t *testing.T) {
	run := func() (uint64, uint64, fault.Counters) {
		cfg := DefaultConfig(topo.Shape3(2, 2, 2))
		cfg.Seed = 9
		cfg.Fault = &fault.Spec{
			CorruptRate:    0.02,
			StallRate:      0.001,
			CreditLossRate: 0.01,
			FailLinks:      1,
		}
		m := MustNew(cfg)
		total := injectUniform(m, 6, 21)
		end, err := m.RunUntilDelivered(total, 4_000_000)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for i := range m.chans {
			ch := &m.chans[i]
			sum += ch.Sent * uint64(ch.ID+1)
		}
		return end, sum, m.FaultStatus().Counters
	}
	e1, s1, c1 := run()
	e2, s2, c2 := run()
	if e1 != e2 || s1 != s2 || c1 != c2 {
		t.Fatalf("nondeterministic fault run: (%d,%d,%+v) vs (%d,%d,%+v)", e1, s1, c1, e2, s2, c2)
	}
}

// TestMachineDeadlockDetail: a machine wedged by stalling every torus link
// must surface the per-component blocked summary in its deadlock error.
func TestMachineDeadlockDetail(t *testing.T) {
	m := MustNew(DefaultConfig(topo.Shape3(2, 2, 2)))
	base := m.Topo.NumNodes() * m.Topo.NumIntraChans()
	for i := base; i < len(m.chans); i++ {
		m.chans[i].SetStall(math.MaxUint64)
	}
	total := injectUniform(m, 2, 5)
	_, err := m.RunUntilDelivered(total, 4_000_000)
	var de *sim.ErrDeadlock
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *sim.ErrDeadlock", err)
	}
	if de.Detail == "" {
		t.Fatal("deadlock error carries no diagnostic snapshot")
	}
	if de.LastProgress >= de.Cycle {
		t.Errorf("LastProgress %d not before deadlock cycle %d", de.LastProgress, de.Cycle)
	}
}

// steadyStateMachine drives a machine with endless allocation-free random
// sources into saturation, for the hot-path alloc pin below.
func steadyStateMachine(tb testing.TB, cfg Config) *Machine {
	tb.Helper()
	m := MustNew(cfg)
	m.Engine.ForceParallelForTest(cyclePolicies["parallel"])
	nodes := m.Topo.NumNodes()
	cores := m.Topo.Chip.CoreEndpoints()
	for n := 0; n < nodes; n++ {
		for _, ep := range cores {
			src := topo.NodeEp{Node: n, Ep: ep}
			rng := rand.New(rand.NewSource(int64(1 + n*64 + ep)))
			e := m.Endpoint(src)
			e.Source = func() *packet.Packet {
				dn := rng.Intn(nodes - 1)
				if dn >= src.Node {
					dn++
				}
				dst := topo.NodeEp{Node: dn, Ep: cores[rng.Intn(len(cores))]}
				return m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng)
			}
		}
	}
	for i := 0; i < 4096; i++ {
		m.Engine.Run(1)
	}
	return m
}

// TestStepFaultOffZeroAllocs pins the zero-cost-when-off contract for the
// fault layer: with Cfg.Fault nil, a steady-state simulation cycle must not
// allocate — the reliability hooks must stay behind nil guards.
func TestStepFaultOffZeroAllocs(t *testing.T) {
	m := steadyStateMachine(t, DefaultConfig(topo.Shape3(2, 2, 2)))
	if m.flt != nil {
		t.Fatal("fault layer attached without a spec")
	}
	if avg := testing.AllocsPerRun(500, func() { m.Engine.Run(1) }); avg != 0 {
		t.Errorf("fault-off Engine.Run(1) allocates %.2f objects/cycle, want 0", avg)
	}
}
