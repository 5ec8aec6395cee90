package machine

import (
	"runtime"
	"testing"
	"unsafe"

	"anton2/internal/arbiter"
	"anton2/internal/fabric"
	"anton2/internal/topo"
)

// BenchmarkBuild times machine.New on the default configuration at the md
// shape and at the paper's full machine, with allocations.
func BenchmarkBuild(b *testing.B) {
	for _, shape := range []topo.TorusShape{topo.Shape3(4, 4, 2), topo.Shape3(8, 8, 8)} {
		b.Run(shape.String(), func(b *testing.B) {
			cfg := DefaultConfig(shape)
			cfg.Shards = 2
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllocs holds a 4x4x2 build to its allocation count, which does
// not depend on the host: the machine is a few dozen slabs however large it
// is. Before the slab layout a build made 26 930 allocations (BenchmarkBuild;
// AllocsPerRun read 26 926); now it makes 164, and the ceiling leaves 10 %
// headroom.
func TestBuildAllocs(t *testing.T) {
	const ceiling = 180
	cfg := DefaultConfig(topo.Shape3(4, 4, 2))
	cfg.Shards = 2
	if n := testing.AllocsPerRun(5, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}); n > ceiling {
		t.Errorf("a 4x4x2 build makes %v allocations, ceiling %d", n, ceiling)
	}
}

// TestFootprint holds the structs a machine is mostly made of to their sizes,
// and one 8x8x8 build to its bytes (a TotalAlloc delta: on one GOARCH it
// does not depend on the host). At 8x8x8 there are 454 656 VC queues, 68 608
// channels and 44 544 router ports, each with an SA1 and an SA2 arbiter.
// The build read 56 149 944 B while a queue was 48 B with its own backing
// array, a channel 256 B and a round-robin arbiter 64 B; it reads 43 804 728.
func TestFootprint(t *testing.T) {
	for _, c := range []struct {
		name          string
		size, ceiling uintptr
	}{
		{"vcq", unsafe.Sizeof(vcq{}), 40},
		{"routerPort", unsafe.Sizeof(routerPort{}), 64},
		{"arbiter.Arbiter", unsafe.Sizeof(arbiter.Arbiter{}), 16}, // round-robin; inverse-weighted adds an arbiter.Weighted
		{"fabric.Channel", unsafe.Sizeof(fabric.Channel{}), 200},
	} {
		if c.size > c.ceiling {
			t.Errorf("%s is %d B, ceiling %d", c.name, c.size, c.ceiling)
		}
	}

	const ceiling = 45_000_000
	cfg := DefaultConfig(topo.Shape3(8, 8, 8))
	cfg.Shards = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	if n := after.TotalAlloc - before.TotalAlloc; n > ceiling {
		t.Errorf("an 8x8x8 build allocates %d B, ceiling %d", n, ceiling)
	}
}
