package machine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"anton2/internal/telemetry"
	"anton2/internal/topo"
)

// refusedField asserts err is a *ConfigError and returns the field it names.
func refusedField(t *testing.T, err error) string {
	t.Helper()
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want a *ConfigError", err, err)
	}
	return ce.Field
}

// TestConfigLattice walks the whole mode lattice — engine x shards x check x
// telemetry x checkpoint, each cell with and without the Progress
// heartbeat, which must change no verdict — and holds every cell to
// the contract: Validate and New agree, a refused cell is a *ConfigError naming
// the field the table below expects, a built cell runs, and a snapshot of it
// succeeds exactly when Checkpointable says so (again with a typed refusal).
// The shards axis has the auto column (0), explicit serial (1), an explicit
// count (2) and a negative one: auto and serial are never refused on account
// of sharding, and Shardable — what the auto resolver consults — refuses
// exactly the cells an explicit count is refused in, naming the same field.
func TestConfigLattice(t *testing.T) {
	// The expected refusal, written as the rules read in DESIGN §9.3.
	wantField := func(engine string, shards int) string {
		switch {
		case engine == "warp":
			return "Engine"
		case shards < 0:
			return "Shards"
		case shards > 1 && engine == EngineScan:
			return "Engine"
		}
		return ""
	}
	cells := 0
	for _, engine := range []string{"", EngineActive, EngineScan, "warp"} {
		for _, shards := range []int{0, 1, 2, -1} {
			for _, check := range []bool{false, true} {
				for _, tel := range []bool{false, true} {
					for _, ckpt := range []bool{false, true} {
						for _, beat := range []bool{false, true} {
							cells++
							cfg := DefaultConfig(topo.Shape3(2, 2, 2))
							cfg.Engine, cfg.Shards, cfg.Check = engine, shards, check
							if beat {
								cfg.Progress = func(uint64) {}
							}
							if tel {
								cfg.Telemetry = &telemetry.Options{}
							}
							name := fmt.Sprintf("engine=%q shards=%d check=%v tel=%v ckpt=%v beat=%v", engine, shards, check, tel, ckpt, beat)
							want := wantField(engine, shards)
							if explicit := wantField(engine, 2); engine != "warp" {
								got := ""
								if err := cfg.Shardable(); err != nil {
									got = refusedField(t, err)
								}
								if got != explicit {
									t.Errorf("%s: Shardable refuses Config.%s, but an explicit Shards: 2 is refused for Config.%s", name, got, explicit)
								}
							}
							verr := cfg.Validate()
							m, nerr := New(cfg)
							if (verr == nil) != (nerr == nil) {
								t.Fatalf("%s: Validate = %v but New = %v", name, verr, nerr)
							}
							if want != "" {
								if nerr == nil {
									t.Fatalf("%s: built, want Config.%s refused", name, want)
								}
								if got := refusedField(t, nerr); got != want {
									t.Errorf("%s: refused Config.%s, want Config.%s", name, got, want)
								}
								continue
							}
							if nerr != nil {
								t.Fatalf("%s: refused (%v), want it to build", name, nerr)
							}
							// New builds auto serial (core.BuildMachine is what resolves it).
							if got, want := len(m.shards), max(shards, 1); got != want {
								t.Errorf("%s: built %d shards, want %d", name, got, want)
							}
							snapInject(m, 2)
							m.Engine.Run(40)
							if !ckpt {
								continue
							}
							cerr := cfg.Checkpointable()
							_, serr := m.Snapshot()
							if (cerr == nil) != (serr == nil) {
								t.Fatalf("%s: Checkpointable = %v but Snapshot = %v", name, cerr, serr)
							}
							switch {
							case check:
								want = "Check"
							case tel:
								want = "Telemetry"
							}
							if want == "" {
								if serr != nil {
									t.Errorf("%s: Snapshot = %v, want success", name, serr)
								}
							} else if got := refusedField(t, serr); got != want {
								t.Errorf("%s: Snapshot refused Config.%s, want Config.%s", name, got, want)
							}
						}
					}
				}
			}
		}
	}
	if cells != 4*4*2*2*2*2 {
		t.Fatalf("walked %d cells, want %d", cells, 4*4*2*2*2*2)
	}
}

// TestProgressFiresAtCadence pins the live-heartbeat contract anton2serve
// relies on: Config.Progress fires with the clock at every multiple of
// ProgressCycles and never between, at the same clocks whether the machine
// steps under scan, active, or two shards alternating serial and parallel
// cycles (the run drains and then idles, so the active engines jump), and a
// machine carrying it has no collector. That it changes no Shardable,
// Checkpointable or Snapshot verdict is TestConfigLattice's beat axis.
func TestProgressFiresAtCadence(t *testing.T) {
	run := func(engine string, shards int) []uint64 {
		var ticks []uint64
		cfg := snapConfig(topo.Shape3(2, 2, 2), engine, shards, false)
		cfg.Progress = func(cycles uint64) { ticks = append(ticks, cycles) }
		m := buildForTest(cfg)
		snapInject(m, 40)
		m.Engine.Run(3*ProgressCycles + 500)
		if m.tel != nil {
			t.Errorf("%s/%d: the heartbeat attached a collector", engine, shards)
		}
		return ticks
	}
	want := []uint64{ProgressCycles, 2 * ProgressCycles, 3 * ProgressCycles}
	for _, c := range []struct {
		engine string
		shards int
	}{{EngineScan, 1}, {EngineActive, 1}, {EngineActive, 2}} {
		if got := run(c.engine, c.shards); !reflect.DeepEqual(got, want) {
			t.Errorf("%s engine, %d shards: heartbeat at %v, want %v", c.engine, c.shards, got, want)
		}
	}
}
