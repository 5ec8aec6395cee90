package machine

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"anton2/internal/arbiter"
	"anton2/internal/fault"
	"anton2/internal/loadcalc"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// snapInject loads a deterministic batch of uniform traffic (pure function
// of the machine's topology, not its engine mode) and returns the total.
func snapInject(m *Machine, perCore int) uint64 {
	rng := rand.New(rand.NewSource(42))
	cores := m.Topo.Chip.CoreEndpoints()
	total := uint64(0)
	for n := 0; n < m.Topo.NumNodes(); n++ {
		for _, ep := range cores {
			src := topo.NodeEp{Node: n, Ep: ep}
			for i := 0; i < perCore; i++ {
				dst := traffic.Uniform{}.Dest(m.Topo, src, rng)
				m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
				total++
			}
		}
	}
	return total
}

// snapConfig is the snapshot tests' machine: the default config under the
// given engine, optionally with the transient-fault go-back-N mix.
func snapConfig(shape topo.TorusShape, engine string, shards int, withFault bool) Config {
	cfg := DefaultConfig(shape)
	cfg.Engine = engine
	cfg.Shards = shards
	if withFault {
		cfg.Fault = &fault.Spec{CorruptRate: 0.02, StallRate: 0.001}
	}
	return cfg
}

// inverseWeighted returns cfg with inverse-weighted arbiters, weighted from
// uniform loads.
func inverseWeighted(cfg Config) Config {
	tm := topo.MustMachine(cfg.Shape)
	rc := &route.Config{Machine: tm, Scheme: cfg.Scheme, DirOrder: topo.DefaultDirOrder, UseSkip: true}
	cfg.Arbiter = arbiter.KindInverseWeighted
	cfg.Weights = loadcalc.BuildWeights(loadcalc.Compute(rc, tm.Chip.CoreEndpoints(), traffic.Uniform{}.Flows(tm), route.ClassRequest))
	return cfg
}

func snapVariants(withFault bool) map[string]Config {
	mk := func(engine string, shards int) Config {
		return snapConfig(topo.Shape3(2, 2, 2), engine, shards, withFault)
	}
	return map[string]Config{
		"scan":    mk(EngineScan, 0),
		"active":  mk(EngineActive, 0),
		"sharded": mk(EngineActive, 2),
	}
}

// mustSnapshot returns the machine's snapshot record.
func mustSnapshot(t testing.TB, m *Machine) []byte {
	t.Helper()
	b, err := m.AppendSnapshot(nil)
	if err != nil {
		t.Fatalf("snapshot at %d: %v", m.Engine.Now(), err)
	}
	return b
}

// TestSnapshotEngineInvariant: the snapshot taken at the same mid-flight
// cycle must be byte-identical regardless of engine mode or shard count.
func TestSnapshotEngineInvariant(t *testing.T) {
	for _, withFault := range []bool{false, true} {
		var ref []byte
		var refName string
		for name, cfg := range snapVariants(withFault) {
			m := buildForTest(cfg)
			snapInject(m, 8)
			m.Engine.Run(300)
			b := mustSnapshot(t, m)
			if ref == nil {
				ref, refName = b, name
			} else if string(b) != string(ref) {
				t.Errorf("fault=%v: %s snapshot differs from %s", withFault, name, refName)
			}
		}
	}
}

// TestSnapshotRestoreBitIdentical: interrupting a run at a mid-flight cycle
// and restoring into a fresh machine (of any engine mode) must finish with a
// final state byte-identical to the uninterrupted run's.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	for _, withFault := range []bool{false, true} {
		variants := snapVariants(withFault)

		// Uninterrupted reference on the scan engine.
		refCfg := variants["scan"]
		ref := MustNew(refCfg)
		total := snapInject(ref, 8)
		ref.Engine.Run(300)
		mid, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		endRef, err := ref.RunUntilDelivered(total, 2_000_000)
		if err != nil {
			t.Fatalf("fault=%v reference: %v", withFault, err)
		}
		refBytes := mustSnapshot(t, ref)

		// Carry the mid-flight snapshot through JSON, as a caller filing
		// Snapshot values may: the record must survive as opaque bytes.
		wire, err := json.Marshal(mid)
		if err != nil {
			t.Fatal(err)
		}

		for name, cfg := range variants {
			var midCopy Snapshot
			if err := json.Unmarshal(wire, &midCopy); err != nil {
				t.Fatal(err)
			}
			m := buildForTest(cfg)
			if err := m.Restore(&midCopy); err != nil {
				t.Fatalf("fault=%v %s: restore: %v", withFault, name, err)
			}
			if got := m.Engine.Now(); got != mid.Now {
				t.Fatalf("fault=%v %s: restored clock %d, want %d", withFault, name, got, mid.Now)
			}
			end, err := m.RunUntilDelivered(total, 2_000_000)
			if err != nil {
				t.Fatalf("fault=%v %s: resumed run: %v", withFault, name, err)
			}
			if end != endRef {
				t.Errorf("fault=%v %s: resumed run finished at cycle %d, reference at %d", withFault, name, end, endRef)
			}
			if got := mustSnapshot(t, m); string(got) != string(refBytes) {
				t.Errorf("fault=%v %s: resumed final state differs from uninterrupted run", withFault, name)
			}
		}
	}
}

// TestSnapshotEveryCycle: restoring from every per-cycle snapshot of a short
// window must converge to the identical final state — no cycle is a bad
// checkpoint boundary.
func TestSnapshotEveryCycle(t *testing.T) {
	cfg := snapVariants(false)["active"]
	ref := MustNew(cfg)
	total := snapInject(ref, 4)
	endRef, err := ref.RunUntilDelivered(total, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := mustSnapshot(t, ref)

	for cut := uint64(0); cut <= 120; cut += 7 {
		m := MustNew(cfg)
		snapInject(m, 4)
		m.Engine.Run(cut)
		s, err := m.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		r := MustNew(cfg)
		if err := r.Restore(s); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		end, err := r.RunUntilDelivered(total, 2_000_000)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if end != endRef {
			t.Errorf("cut %d: finished at cycle %d, want %d", cut, end, endRef)
		}
		if got := mustSnapshot(t, r); string(got) != string(refBytes) {
			t.Errorf("cut %d: final state differs from uninterrupted run", cut)
		}
	}
}

// TestSnapshotGuards: the refusal conditions.
func TestSnapshotGuards(t *testing.T) {
	cfg := DefaultConfig(topo.Shape3(2, 2, 2))
	cfg.Check = true
	m := MustNew(cfg)
	if _, err := m.Snapshot(); err == nil {
		t.Error("snapshot with the invariant suite attached should fail")
	} else if got := refusedField(t, err); got != "Check" {
		t.Errorf("snapshot refused Config.%s, want Config.Check", got)
	}
	if err := m.Restore(&Snapshot{}); refusedField(t, err) != "Check" {
		t.Errorf("restore with the invariant suite attached = %v, want Config.Check refused", err)
	}

	cfg2 := DefaultConfig(topo.Shape3(2, 2, 2))
	m2 := MustNew(cfg2)
	m2.Engine.Run(10)
	s, err := m2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m3 := MustNew(cfg2)
	m3.Engine.Run(1)
	if err := m3.Restore(s); err == nil {
		t.Error("restore into a non-fresh machine should fail")
	}
	if err := MustNew(DefaultConfig(topo.Shape3(4, 2, 2))).Restore(s); err == nil {
		t.Error("restore with a node and channel count mismatch should fail")
	}
	bad := *s
	bad.Now++
	if err := MustNew(cfg2).Restore(&bad); err == nil {
		t.Error("restore of a snapshot filed under another cycle should fail")
	}
	if err := MustNew(inverseWeighted(cfg2)).Restore(s); err == nil {
		t.Error("restore into a machine with another arbiter kind should fail")
	}
	flt := snapConfig(cfg2.Shape, "", 0, true)
	if err := MustNew(flt).Restore(s); err == nil {
		t.Error("restore of a fault-free snapshot into a fault-injecting machine should fail")
	}
}

// TestSnapshotSteadyStateAllocs: a snapshot is encoded straight from live
// state through a packet table the machine keeps, so taking one into a buffer
// that already has the capacity allocates nothing.
func TestSnapshotSteadyStateAllocs(t *testing.T) {
	for _, withFault := range []bool{false, true} {
		m := MustNew(snapConfig(topo.Shape3(4, 4, 2), EngineActive, 0, withFault))
		snapInject(m, 8)
		m.Engine.Run(100)
		buf := mustSnapshot(t, m)
		if avg := testing.AllocsPerRun(20, func() { buf, _ = m.AppendSnapshot(buf[:0]) }); avg != 0 {
			t.Errorf("fault=%v: a warmed snapshot allocates %.1f objects, want 0", withFault, avg)
		}
		if inFlight := m.Injected() - m.Delivered(); inFlight < 100 {
			t.Errorf("fault=%v: only %d packets in flight: not a mid-burst snapshot", withFault, inFlight)
		}
	}
}

// fuzzConfig is the machine FuzzSnapshotRestore restores into: the mask
// scenarios' 2x2x2 machines, and the uniform one again under inverse-weighted
// arbiters.
func fuzzConfig(i uint8) (maskScenario, Config) {
	sc := maskScenarios[int(i)%len(maskScenarios)]
	cfg := sc.config(topo.Shape3(2, 2, 2), EngineActive, 0)
	if int(i)%(len(maskScenarios)+1) == len(maskScenarios) {
		sc = maskScenarios[0]
		cfg = inverseWeighted(sc.config(topo.Shape3(2, 2, 2), EngineActive, 0))
	}
	return sc, cfg
}

// FuzzSnapshotRestore: restoring arbitrary bytes into a fresh machine is an
// error or a success, never a panic, and on success the restored machine
// re-encodes to exactly the bytes it was given — the decoder accepts one
// spelling of a state. The seed corpus is real mid-flight snapshots of each
// configuration.
func FuzzSnapshotRestore(f *testing.F) {
	for i := uint8(0); i <= uint8(len(maskScenarios)); i++ {
		sc, cfg := fuzzConfig(i)
		m := MustNew(cfg)
		sc.inject(m)
		for _, cycles := range []uint64{0, 40, 90} {
			m.Engine.Run(cycles)
			f.Add(i, mustSnapshot(f, m))
		}
	}
	f.Fuzz(func(t *testing.T, i uint8, data []byte) {
		_, cfg := fuzzConfig(i)
		m := MustNew(cfg)
		if err := m.RestoreSnapshot(data); err != nil {
			return
		}
		if again := mustSnapshot(t, m); !bytes.Equal(again, data) {
			t.Fatalf("restored machine re-encodes to %d bytes that differ from the %d restored", len(again), len(data))
		}
	})
}
