package machine

import (
	"testing"

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
