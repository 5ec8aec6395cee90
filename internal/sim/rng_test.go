package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// rngDraws crosses draw 274, where a stream builds its register, and draw
// 607, where the register's feed index wraps.
const rngDraws = 2000

// rngSink keeps the draws of the allocation test and the benchmark live.
var rngSink uint64

func rngSeeds() []int64 {
	seeds := []int64{0, 1, -1, lcgMod, -lcgMod, 5 * lcgMod, -3 * lcgMod,
		math.MinInt64, math.MaxInt64, 89482311}
	r := rand.New(rand.NewSource(43))
	for range 300 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// matchStream compares n draws of the source at seed with math/rand's, through
// Uint64 and Int63 on fresh streams.
func matchStream(t *testing.T, seed int64, n int) {
	t.Helper()
	got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
	for k := 1; k <= n; k++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, k, g, w)
		}
	}
	got, want = newSource(seed), rand.NewSource(seed).(rand.Source64)
	for k := 1; k <= n; k++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %#x, math/rand %#x", seed, k, g, w)
		}
	}
}

func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range rngSeeds() {
		matchStream(t, seed, rngDraws)

		// rand.Rand's derived draws: Intn through Int31n and Int63n, Float64
		// and Perm, interleaved so every draw position is reached by each.
		got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
		for k := 0; k < rngDraws/4; k++ {
			n := 1 + k%97
			if k%2 == 1 {
				n = 1<<40 + k
			}
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) at step %d = %d, math/rand %d", seed, n, k, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 at step %d = %v, math/rand %v", seed, k, g, w)
			}
		}
		if g, w := fmt.Sprint(got.Perm(300)), fmt.Sprint(want.Perm(300)); g != w {
			t.Fatalf("seed %d: Perm(300) differs from math/rand", seed)
		}

		// Seed restarts the stream, here past its register build.
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		for k := 1; k <= 300; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d after Seed = %#x, math/rand %#x", seed+1, k, g, w)
			}
		}
	}

	// NewRNG is math/rand's stream for seed ^ fnv64a(name).
	for _, name := range []string{"", "router-0", "tp-src-511-15", "latency-pairs"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		got, want := NewRNG(7, name), rand.New(rand.NewSource(int64(7^h.Sum64())))
		for k := 1; k <= rngDraws; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("NewRNG(7, %q) draw %d = %#x, math/rand %#x", name, k, g, w)
			}
		}
	}
}

func FuzzRNGStream(f *testing.F) {
	f.Add(int64(0), uint16(rngTap+1))
	f.Add(int64(-lcgMod), uint16(rngLen+1))
	f.Add(int64(math.MinInt64), uint16(24))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		matchStream(t, seed, int(draws))
	})
}

// TestNewRNGAllocs pins what a short stream costs: the stream and its
// rand.Rand, and no register.
func TestNewRNGAllocs(t *testing.T) {
	const runs = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	stream := func() {
		r := NewRNG(1, "tp-src-511-15")
		for range 24 {
			rngSink += r.Uint64()
		}
	}
	stream()
	runtime.ReadMemStats(&before)
	for range runs {
		stream()
	}
	runtime.ReadMemStats(&after)
	// Whole counts per stream, as testing.AllocsPerRun rounds: the runtime
	// may allocate a few objects of its own during the loop.
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > 2 || bytes > 256 {
		t.Errorf("NewRNG plus 24 draws: %d allocations, %d B; want ≤ 2 and ≤ 256 B", allocs, bytes)
	}
}

// BenchmarkRNGStream prices a stream from construction through n draws,
// against math/rand's own source.
func BenchmarkRNGStream(b *testing.B) {
	for _, n := range []int{24, 200, 2000} {
		for _, impl := range []struct {
			name string
			new  func(int64) rand.Source64
		}{
			{"lazy", func(s int64) rand.Source64 { return newSource(s) }},
			{"mathrand", func(s int64) rand.Source64 { return rand.NewSource(s).(rand.Source64) }},
		} {
			b.Run(fmt.Sprintf("draws=%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := impl.new(int64(i))
					for range n {
						rngSink += s.Uint64()
					}
				}
			})
		}
	}
}
