package core

import (
	"runtime"
	"testing"

	"anton2/internal/machine"
	"anton2/internal/topo"
)

// TestAutoShards pins the auto rule over cores x machine size x pool width:
// min(cores / pool, nodes / nodesPerShard), never below 1. The shapes are the
// benchmark's (2x2x2, 4x4x2, 8x8x8) and the paper's maximum (16x16x16): the
// floor keeps 2x2x2 serial on any host, lets 4x4x2 take two shards and leaves
// the large two to the cores.
func TestAutoShards(t *testing.T) {
	want := map[[3]int]int{} // {procs, nodes, pool} -> shards; absent = 1
	for _, c := range [][4]int{
		// 32 nodes allow 2 shards.
		{2, 32, 1, 2}, {4, 32, 1, 2}, {4, 32, 2, 2}, {16, 32, 1, 2}, {16, 32, 2, 2}, {16, 32, 8, 2},
		// 512 nodes allow 32, so the cores decide.
		{2, 512, 1, 2}, {4, 512, 1, 4}, {4, 512, 2, 2}, {16, 512, 1, 16}, {16, 512, 2, 8}, {16, 512, 8, 2},
		// So do 4096 nodes.
		{2, 4096, 1, 2}, {4, 4096, 1, 4}, {4, 4096, 2, 2}, {16, 4096, 1, 16}, {16, 4096, 2, 8}, {16, 4096, 8, 2},
	} {
		want[[3]int{c[0], c[1], c[2]}] = c[3]
	}
	for _, procs := range []int{1, 2, 4, 16} {
		for _, nodes := range []int{8, 32, 512, 4096} {
			for _, pool := range []int{1, 2, 8} {
				w := want[[3]int{procs, nodes, pool}]
				if w == 0 {
					w = 1
				}
				if got := autoShards(procs, pool, nodes, nodesPerShard); got != w {
					t.Errorf("procs=%d nodes=%d pool=%d: auto = %d shards, want %d", procs, nodes, pool, got, w)
				}
			}
		}
	}
}

// TestResolveShards: an explicit count is returned untouched, auto resolves
// through the limits, every rule by which machine.Config.Validate refuses an
// explicit count makes auto serial instead of an error, and what auto
// resolves to always validates. That Check, Telemetry and the heartbeat
// change none of it is the mode lattice's (lattice_test.go).
func TestResolveShards(t *testing.T) {
	limits := autoLimits
	defer func() { autoLimits = limits }()
	autoLimits = func() (int, int) { return 4, nodesPerShard }

	big := machine.DefaultConfig(topo.Shape3(8, 8, 8))
	for name, tc := range map[string]struct {
		mutate func(*machine.Config)
		pool   int
		want   int
	}{
		"auto, point on its own": {func(*machine.Config) {}, 1, 4},
		"auto, pool of two":      {func(*machine.Config) {}, 2, 2},
		"auto, pool fills cores": {func(*machine.Config) {}, 4, 1},
		"auto, pool unset":       {func(*machine.Config) {}, 0, 4},
		"auto, 4x4x2":            {func(c *machine.Config) { c.Shape = topo.Shape3(4, 4, 2) }, 1, 2},
		"auto, below the floor":  {func(c *machine.Config) { c.Shape = topo.Shape3(4, 2, 2) }, 1, 1},
		"explicit serial":        {func(c *machine.Config) { c.Shards = 1 }, 1, 1},
		"explicit count":         {func(c *machine.Config) { c.Shards = 7 }, 4, 7},
		"auto under scan":        {func(c *machine.Config) { c.Engine = machine.EngineScan }, 1, 1},
	} {
		cfg := big
		tc.mutate(&cfg)
		cfg.Shards = ResolveShards(cfg, tc.pool)
		if cfg.Shards != tc.want {
			t.Errorf("%s: resolved to %d shards, want %d", name, cfg.Shards, tc.want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: resolved to a config Validate refuses: %v", name, err)
		}
	}

	// One core: every driver takes the unsharded path.
	autoLimits = func() (int, int) { return 1, nodesPerShard }
	if got := ResolveShards(big, 1); got != 1 {
		t.Errorf("one core: auto = %d shards, want 1", got)
	}
	// The production limits are GOMAXPROCS and the constant.
	if procs, floor := limits(); procs != runtime.GOMAXPROCS(0) || floor != nodesPerShard {
		t.Errorf("production limits = (%d, %d), want (GOMAXPROCS, nodesPerShard)", procs, floor)
	}
}

// TestBuildMachineResolvesAuto: BuildMachine is where a config still at auto
// becomes a sharded or serial machine; machine.New leaves it alone (and builds
// it serial, which machine's TestShardedConfigValidation pins).
func TestBuildMachineResolvesAuto(t *testing.T) {
	limits := autoLimits
	defer func() { autoLimits = limits }()
	autoLimits = func() (int, int) { return 2, 4 }

	for _, tc := range []struct {
		shape topo.TorusShape
		want  int
	}{{topo.Shape3(2, 2, 2), 2}, {topo.Shape3(1, 1, 2), 1}} {
		m, _, err := BuildMachine(machine.DefaultConfig(tc.shape))
		if err != nil {
			t.Fatal(err)
		}
		if m.Cfg.Shards != tc.want {
			t.Errorf("%v: BuildMachine built %d shards, want %d", tc.shape, m.Cfg.Shards, tc.want)
		}
		direct, err := machine.New(machine.DefaultConfig(tc.shape))
		if err != nil {
			t.Fatal(err)
		}
		if direct.Cfg.Shards != 0 {
			t.Errorf("%v: machine.New rewrote Shards to %d", tc.shape, direct.Cfg.Shards)
		}
	}
}
