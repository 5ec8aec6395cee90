package machine

import (
	"encoding/json"
	"math/rand"
	"testing"

	"anton2/internal/fault"
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
		cfg.Fault = &fault.Spec{CorruptRate: 0.02, StallRate: 0.001, StallCycles: 40, Window: 16}
	}
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

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
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
			s, err := m.Snapshot()
			if err != nil {
				t.Fatalf("fault=%v %s: %v", withFault, name, err)
			}
			b := mustJSON(t, s)
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
		finRef, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		refBytes := mustJSON(t, finRef)

		// Serialize the mid-flight snapshot through JSON, as the checkpoint
		// codec would, so the test also covers codec-level fidelity.
		wire := mustJSON(t, mid)

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
			fin, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, fin); string(got) != string(refBytes) {
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
	finRef, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refBytes := mustJSON(t, finRef)

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
		fin, err := r.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := mustJSON(t, fin); string(got) != string(refBytes) {
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
	bad := *s
	bad.Chans = bad.Chans[:1]
	m4 := MustNew(cfg2)
	if err := m4.Restore(&bad); err == nil {
		t.Error("restore with a channel count mismatch should fail")
	}
}
