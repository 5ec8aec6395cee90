package machine

import (
	"errors"
	"reflect"
	"testing"

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

// TestProgressFiresAtCadence pins the live-heartbeat contract anton2serve
// relies on: Config.Progress fires with the clock at every multiple of
// progressCycles and never between, at the same clocks whether the machine
// steps under scan, active, or two shards alternating serial and parallel
// cycles (the run drains and then idles, so the active engines jump), and a
// machine carrying it has no collector. That it changes no Shardable or
// Snapshot verdict is the beat axis of core's mode lattice.
func TestProgressFiresAtCadence(t *testing.T) {
	run := func(engine string, shards int) []uint64 {
		var ticks []uint64
		cfg := snapConfig(topo.Shape3(2, 2, 2), engine, shards, false)
		cfg.Progress = func(cycles uint64) { ticks = append(ticks, cycles) }
		m := buildForTest(cfg)
		snapInject(m, 40)
		m.Engine.Run(3*progressCycles + 500)
		if m.tel != nil {
			t.Errorf("%s/%d: the heartbeat attached a collector", engine, shards)
		}
		return ticks
	}
	want := []uint64{progressCycles, 2 * progressCycles, 3 * progressCycles}
	for _, c := range []struct {
		engine string
		shards int
	}{{EngineScan, 1}, {EngineActive, 1}, {EngineActive, 2}} {
		if got := run(c.engine, c.shards); !reflect.DeepEqual(got, want) {
			t.Errorf("%s engine, %d shards: heartbeat at %v, want %v", c.engine, c.shards, got, want)
		}
	}
}
