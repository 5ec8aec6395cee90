package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anton2/internal/arbiter"
	"anton2/internal/ckpt"
	"anton2/internal/fault"
	"anton2/internal/loadcalc"
	"anton2/internal/route"
	"anton2/internal/telemetry"
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
	// Through-only skip weights: the golden records were taken with them.
	rc := &route.Config{Machine: tm, Scheme: cfg.Scheme, DirOrder: topo.DefaultDirOrder, ExitSkip: false}
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

// TestObservedResume: a checked 4x4x2 machine with a telemetry collector,
// one of whose credit counters is corrupted from the start, is snapshotted
// mid-flight between two check scans and two window closes, and restored
// under every engine mode. After every cycle the restored machines'
// records equal the uninterrupted one's, the suite's violation count and the
// collector's window series included, so check scans and window closes fall
// on the uninterrupted run's cycles; each finishes with the same error (count
// and least violation) and the same report.
func TestObservedResume(t *testing.T) {
	observed := func(engine string, shards int, report *[]byte) Config {
		cfg := snapConfig(topo.Shape3(4, 4, 2), engine, shards, false)
		cfg.Check = true
		cfg.Telemetry = &telemetry.Options{Sink: func(r *telemetry.Report) {
			var err error
			if *report, err = json.Marshal(r); err != nil {
				t.Error(err)
			}
		}}
		return cfg
	}
	var refReport []byte
	ref := buildForTest(observed(EngineScan, 1, &refReport))
	total := snapInject(ref, 80)
	ref.Chan(0).CorruptCreditsForTest(0, +10)
	// 12 cycles past a scan; telemetry's first window closed at 1 024, its
	// second closes at 2 048.
	const at, until = 1100, 2100
	ref.Engine.Run(at)
	mid := mustSnapshot(t, ref)
	if ref.Delivered() == total {
		t.Fatal("the snapshot holds no traffic in flight")
	}

	type resumed struct {
		name   string
		m      *Machine
		report []byte
	}
	var rs []*resumed
	for _, v := range []struct {
		name   string
		engine string
		shards int
	}{{"scan", EngineScan, 1}, {"active", EngineActive, 1}, {"sharded", EngineActive, 2}} {
		r := &resumed{name: v.name}
		r.m = buildForTest(observed(v.engine, v.shards, &r.report))
		if err := r.m.RestoreSnapshot(mid); err != nil {
			t.Fatalf("%s: restore: %v", v.name, err)
		}
		rs = append(rs, r)
	}
	var want, got []byte
	for cycle := uint64(at + 1); cycle <= until; cycle++ {
		ref.Engine.Step()
		for _, r := range rs {
			r.m.Engine.Step()
		}
		if cycle > at+2*64 && cycle < until-64 {
			continue // two scans after the resume, and the window close
		}
		want = mustSnapshot(t, ref)
		for _, r := range rs {
			if got = mustSnapshot(t, r.m); !bytes.Equal(got, want) {
				t.Fatalf("%s: record at cycle %d differs from the uninterrupted run's", r.name, cycle)
			}
		}
	}
	finish := func(m *Machine) string {
		if _, err := m.RunUntilDelivered(total, 2_000_000); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(m.FinishChecks())
	}
	wantErr := finish(ref)
	if !strings.Contains(wantErr, "above buffer capacity") {
		t.Fatalf("uninterrupted run: %s, want the corrupted credit reported", wantErr)
	}
	for _, r := range rs {
		if gotErr := finish(r.m); gotErr != wantErr {
			t.Errorf("%s: resumed run: %s\nuninterrupted: %s", r.name, gotErr, wantErr)
		}
		if !bytes.Equal(r.report, refReport) {
			t.Errorf("%s: resumed telemetry report differs from the uninterrupted run's", r.name)
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
	checked, observed := cfg2, cfg2
	checked.Check = true
	observed.Telemetry = &telemetry.Options{}
	for name, other := range map[string]Config{"checked": checked, "observed": observed} {
		if err := MustNew(other).Restore(s); err == nil || !strings.Contains(err.Error(), "snapshot of a machine with") {
			t.Errorf("restore of an unobserved snapshot into a %s machine = %v, want a shape mismatch", name, err)
		}
		m := MustNew(other)
		m.Engine.Run(10)
		if err := MustNew(cfg2).RestoreSnapshot(mustSnapshot(t, m)); err == nil || !strings.Contains(err.Error(), "snapshot of a machine with") {
			t.Errorf("restore of a %s snapshot into an unobserved machine = %v, want a shape mismatch", name, err)
		}
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
// scenarios' 2x2x2 machines, then the golden records' checked ones.
func fuzzConfig(i uint8) (maskScenario, Config) {
	n := len(maskScenarios)
	k := int(i) % (n + len(goldenRecords))
	if k < n {
		return maskScenarios[k], maskScenarios[k].config(topo.Shape3(2, 2, 2), EngineActive, 0)
	}
	g := goldenRecords[k-n]
	cfg := g.sc.config(topo.Shape3(2, 2, 2), EngineActive, 0)
	cfg.Check = true
	if g.mod != nil {
		g.mod(&cfg)
	}
	return g.sc, cfg
}

// goldenRecords are the snapshot records under testdata/snapshot, one per
// checked 2x2x2 machine: the uniform one under inverse-weighted arbiters, the
// transient fault mix, the multicast one, and the fault mix with a telemetry
// collector, which traces node 0's first packets. Each file is that
// machine's FuzzSnapshotRestore seed at cycle 40 (goldenRecipe), as the
// commit that added it wrote it; goldenCkpt wraps the uniform machine's in a
// checkpoint record.
var goldenRecords = []struct {
	file string
	sc   maskScenario
	mod  func(*Config)
}{
	{"iw.bin", maskScenarios[0], func(c *Config) { *c = inverseWeighted(*c) }},
	{"faults.bin", maskScenarios[2], nil},
	{"multicast.bin", maskScenarios[1], nil},
	{"telemetry.bin", maskScenarios[2], func(c *Config) { c.Telemetry = &telemetry.Options{} }},
}

const goldenCkpt = "uniform.ckpt.bin"

// goldenRecipe returns the record of fuzzConfig(k)'s machine 40 cycles after
// its scenario's traffic was injected.
func goldenRecipe(tb testing.TB, k uint8) (now uint64, record []byte) {
	sc, cfg := fuzzConfig(k)
	m := MustNew(cfg)
	sc.inject(m)
	m.Engine.Run(40)
	return m.Engine.Now(), mustSnapshot(tb, m)
}

func readGolden(tb testing.TB, file string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot", file))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestSnapshotGolden: records an earlier commit wrote restore into freshly
// built machines of their configs, re-encode to the same bytes and run on 50
// cycles, then drain, with the invariant suite reporting no violation. The
// checkpoint record likewise decodes, re-encodes to itself and carries a
// snapshot that restores. Their recipes still write the same bytes, which a
// codec that swaps two fields symmetrically, and so round-trips, would not.
// This pins the record bytes across any rewrite of the codec: a change to
// them comes with a new snapshotVersion and new files. (A simulator change
// that moves the state at cycle 40 fails only the recipe comparison; it
// rewrites the files from goldenRecipe once the old ones have restored.)
func TestSnapshotGolden(t *testing.T) {
	runOn := func(name string, m *Machine, data []byte) {
		if m.Injected() == m.Delivered() {
			t.Errorf("%s holds no packet in flight", name)
		}
		if again := mustSnapshot(t, m); !bytes.Equal(again, data) {
			t.Errorf("%s: the restored machine re-encodes to %d bytes that differ from the %d restored", name, len(again), len(data))
		}
		m.Engine.Run(50)
		if err := m.FinishChecks(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for j, g := range goldenRecords {
		data := readGolden(t, g.file)
		k := uint8(len(maskScenarios) + j)
		if _, rec := goldenRecipe(t, k); !bytes.Equal(rec, data) {
			t.Errorf("%s: its recipe writes %d bytes that differ from the %d on file", g.file, len(rec), len(data))
		}
		_, cfg := fuzzConfig(k)
		m := MustNew(cfg)
		if err := m.RestoreSnapshot(data); err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		runOn(g.file, m, data)
	}

	rec := readGolden(t, goldenCkpt)
	c, err := ckpt.Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := c.Encode(); err != nil || !bytes.Equal(again, rec) {
		t.Errorf("%s re-encodes to different bytes (%v)", goldenCkpt, err)
	}
	now, snap := goldenRecipe(t, 0)
	if again, err := ckpt.New("golden", now).Add("machine", snap).Add("driver", []byte(`{"golden":true}`)).Encode(); err != nil || !bytes.Equal(again, rec) {
		t.Errorf("%s: its recipe writes different bytes (%v)", goldenCkpt, err)
	}
	data, ok := c.Section("machine")
	if !ok {
		t.Fatalf("%s has no machine section", goldenCkpt)
	}
	_, cfg := fuzzConfig(0)
	m := MustNew(cfg)
	if err := m.Restore(&Snapshot{Now: c.Cycle, Data: data}); err != nil {
		t.Fatal(err)
	}
	runOn(goldenCkpt, m, data)
}

// FuzzSnapshotRestore: restoring arbitrary bytes into a fresh machine is an
// error or a success, never a panic, and on success the restored machine
// re-encodes to exactly the bytes it was given — the decoder accepts one
// spelling of a state. The seed corpus is the golden records and real
// mid-flight snapshots of each configuration.
func FuzzSnapshotRestore(f *testing.F) {
	for j, g := range goldenRecords {
		f.Add(uint8(len(maskScenarios)+j), readGolden(f, g.file))
	}
	for i := uint8(0); i < uint8(len(maskScenarios)+len(goldenRecords)); i++ {
		sc, cfg := fuzzConfig(i)
		m := MustNew(cfg)
		sc.inject(m)
		for _, cycles := range []uint64{0, 40, 90} {
			m.Engine.Run(cycles)
			data := mustSnapshot(f, m)
			f.Add(i, data)
			if m.tel != nil && cycles == 40 {
				// Restored and finished at once, the collector reports the
				// traces completed so far: fewer than it started.
				var done int
				obs := cfg
				obs.Telemetry = &telemetry.Options{Sink: func(r *telemetry.Report) { done = len(r.Traces) }}
				if r := MustNew(obs); r.RestoreSnapshot(data) != nil || r.FinishChecks() != nil || done >= 4 {
					f.Fatalf("the telemetry seed holds no traced packet in flight (%d traces done)", done)
				}
			}
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
