package sim

import "math/rand"

// NewRNG returns a deterministic random source derived from a master seed and
// a component name, so every component gets an independent but reproducible
// stream regardless of construction order. The stream is exactly math/rand's
// rand.NewSource(int64(seed ^ fnv64a(name))), drawn through rand.Rand, but its
// 607-word register is built only on the stream's 274th draw: until then a
// draw computes the two register entries it reads straight from the seeding
// LCG, so a stream costs a few words until it is drawn on at length.
func NewRNG(seed uint64, name string) *rand.Rand {
	h := uint64(14695981039346656037) // FNV-1a, 64-bit
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return rand.New(newSource(int64(seed ^ h)))
}

// math/rand's additive lagged Fibonacci generator: a register of rngLen words
// where draw k adds the entry rngTap places behind the one it overwrites.
// Register entry i is seeded from LCG steps 21+3i, 22+3i and 23+3i of
// x' = 48271·x mod 2³¹−1 and XORed with a fixed table (math/rand's rngCooked).
const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap // the first draw's feed entry, plus one
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
)

var (
	// rngCooked is math/rand's unexported table, recovered at init.
	rngCooked [rngLen]uint64
	// lcgFeed0 and lcgTap0 are 48271 to the power of the LCG step one draw
	// past the first draw's feed and tap entries; lcgBack3 steps back 3
	// (48271⁻³, by Fermat).
	lcgFeed0 = powMod(lcgMul, 21+3*rngFeed)
	lcgTap0  = powMod(lcgMul, 21+3*rngLen)
	lcgBack3 = powMod(lcgMul, lcgMod-1-3)
	lcgMul2  = mulMod(lcgMul, lcgMul)
	lcgMul3  = mulMod(lcgMul2, lcgMul)
)

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2], folding the product
// (2³¹ ≡ 1) instead of dividing. Both operands are non-zero modulo a prime,
// so the result is never 0 and the two folds leave it in [1, 2³¹−2].
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	return p&lcgMod + p>>31
}

func powMod(a, n uint64) uint64 {
	r := uint64(1)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r = mulMod(r, a)
		}
		a = mulMod(a, a)
	}
	return r
}

// entry returns register entry i given x, the LCG state at step 21+3i.
func entry(x uint64, i int) uint64 {
	return x<<40 ^ mulMod(x, lcgMul)<<20 ^ mulMod(x, lcgMul2) ^ rngCooked[i]
}

func init() {
	// Draws 1–273 of a stream are v[334−k] + v[607−k] of the seeded register
	// v; draw k > 273 adds draw k−273, which overwrote its tap entry. So the
	// first 607 draws of seed 1 give back all of v, and v XOR its LCG part
	// (the register seeded with a zero table) is the table.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64 // out[k] is draw k
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var v, lcg [rngLen]uint64
	for k := rngTap + 1; k <= rngFeed; k++ {
		v[rngFeed-k] = out[k] - out[k-rngTap]
	}
	for k := rngFeed + 1; k <= rngLen; k++ {
		v[rngFeed+rngLen-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngFeed-k] = out[k] - v[rngLen-k]
	}
	seedRegister(&lcg, 1)
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ lcg[i]
	}
}

// seedRegister fills vec as math/rand's rngSource.Seed does for a seed
// already normalised to [1, 2³¹−2].
func seedRegister(vec *[rngLen]uint64, seed uint64) {
	x := mulMod(seed, powMod(lcgMul, 21))
	for i := range vec {
		vec[i] = entry(x, i)
		x = mulMod(x, lcgMul3)
	}
}

// source is math/rand's rngSource, seeded lazily: while reg is nil, draw n+1
// reads entries rngFeed−n−1 and rngLen−n−1, which no earlier draw has written,
// and computes each from its LCG state (feed and tap, stepped back 3 a draw).
// Draw 274 is the first whose tap entry holds an earlier draw's output: it
// seeds the register, replays the first 273 draws and goes on from there.
type source struct {
	seed      uint64 // normalised to [1, 2³¹−2]
	n         int    // draws so far, while reg is nil
	feed, tap uint64
	reg       *register
}

type register struct {
	tap, feed int
	vec       [rngLen]uint64
}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed, as rand.NewSource(seed) would start it.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	*s = source{seed: x, feed: mulMod(x, lcgFeed0), tap: mulMod(x, lcgTap0)}
}

func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *source) Uint64() uint64 {
	if s.reg != nil {
		return s.reg.next()
	}
	if s.n == rngTap {
		s.reg = &register{feed: rngFeed}
		seedRegister(&s.reg.vec, s.seed)
		for range rngTap {
			s.reg.next()
		}
		return s.reg.next()
	}
	s.n++
	s.feed = mulMod(s.feed, lcgBack3)
	s.tap = mulMod(s.tap, lcgBack3)
	return entry(s.feed, rngFeed-s.n) + entry(s.tap, rngLen-s.n)
}

func (r *register) next() uint64 {
	if r.tap--; r.tap < 0 {
		r.tap += rngLen
	}
	if r.feed--; r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

// SplitMix64 advances a simple splittable PRNG state; useful for cheap,
// allocation-free per-packet randomization.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
