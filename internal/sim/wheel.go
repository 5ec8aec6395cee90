package sim

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// wheelBuckets is the wake-wheel horizon in cycles (power of two). Wakes
	// within [now, now+wheelBuckets) go straight into a per-cycle bitset
	// bucket; farther wakes (e.g. go-back-N retransmit deadlines, paced
	// injection schedules) overflow into a min-heap drained as the clock
	// approaches them. 512 comfortably covers every in-horizon latency in
	// the machine (torus latency 45, credit loop ~2*45, adapter timeouts are
	// the main overflow users).
	wheelBuckets = 512
	wheelMask    = wheelBuckets - 1
)

func trailingZeros64(x uint64) int { return bits.TrailingZeros64(x) }

type wakeEnt struct {
	at uint64
	id int32
}

// wheel is the active-set schedule: one bitset bucket per cycle in a ring of
// wheelBuckets cycles (bit i of bucket b = component i is scheduled at some
// cycle congruent to b within the horizon), plus an overflow min-heap for
// wakes beyond the horizon. The invariant maintained by Engine is that bits
// only ever describe cycles in [now, now+wheelBuckets), so bucket aliasing
// is never ambiguous.
//
// Each bucket carries a summary bitmap, one bit per bucket word: bit wi&63
// of sum[b][wi>>6] is set exactly while words[b][wi] is non-zero. set marks
// it on a word's first bit, clear zeroes only the flagged words, and
// tickRange walks the flagged words alone, so a sparse cycle costs the
// components it ticks rather than the size of the machine (an 8x8x8 machine
// has 408 words a bucket, and 7 summary words).
type wheel struct {
	words  [wheelBuckets][]uint64
	sum    [wheelBuckets][]uint64 // per bucket, one bit per non-zero word
	cnt    [wheelBuckets]uint32   // scheduled bits per bucket (0 = skip/clear fast path)
	nwords int

	// Parallel-phase bookkeeping of a sharded engine (shard). A worker wakes
	// only components of its own shard, so it owns every bucket word that
	// lies inside its id range and writes it plainly, counting into its own
	// slot of pcnt; only a word whose ids straddle two ranges is shared, and
	// goes through the atomic path into the last slot. slotOf[wi] names the
	// slot of word wi. The coordinator folds the slots into cnt at the
	// barrier, visiting only the buckets a slot flags as counted into, so no
	// word is shared by the workers but the straddling ones.
	// Summary words follow the same rule one level up: sumShared[si] is set
	// when the 64 words summary word si covers are not all owned by one
	// shard, and only such a word is marked with a compare-and-swap.
	slotOf    []uint16
	sumShared []bool
	pcnt      []*phaseCount

	mu      sync.Mutex // guards heap pushes during the parallel phase
	heap    []wakeEnt
	heapMin uint64 // heap[0].at, or ^uint64(0) when empty
}

// phaseCount is one slot of a parallel phase's wake counts: n[b] wakes into
// bucket b, and bit b of hit set once n[b] is.
type phaseCount struct {
	n   [wheelBuckets]uint32
	hit [wheelBuckets / 64]uint64
}

func (w *wheel) init() { w.heapMin = ^uint64(0) }

// reset discards every scheduled wake: all buckets cleared, heap emptied.
// Engine.ResetTo uses it when restoring a snapshot; the restore path then
// re-issues every wake the restored state implies.
func (w *wheel) reset() {
	for b := range w.words {
		clear(w.words[b])
		clear(w.sum[b])
		w.cnt[b] = 0
	}
	w.heap = w.heap[:0]
	w.heapMin = ^uint64(0)
}

// grow widens every bucket to cover n components. Registration-time only.
// All buckets share one backing array (and their summaries another), which
// grows geometrically, so registering components one at a time stays
// linear; Engine.Reserve grows it once, to the final count.
func (w *wheel) grow(n int) {
	nw := (n + 63) >> 6
	if nw <= w.nwords {
		return
	}
	nw = max(nw, 2*w.nwords)
	ns := (nw + 63) >> 6
	words := make([]uint64, wheelBuckets*nw)
	sums := make([]uint64, wheelBuckets*ns)
	for b := range w.words {
		copy(words[b*nw:], w.words[b])
		copy(sums[b*ns:], w.sum[b])
		w.words[b] = words[b*nw : (b+1)*nw : (b+1)*nw]
		w.sum[b] = sums[b*ns : (b+1)*ns : (b+1)*ns]
	}
	w.nwords = nw
}

// set schedules component id at cycle at (caller guarantees at >= now). With
// par set (shard workers running) the caller is the worker of id's shard: the
// count goes to a per-shard slot, and the bit is set atomically only in a word
// two shards share; the word's summary bit likewise (mark). The serial path
// stays branch-cheap and allocation-free.
func (w *wheel) set(id int, at, now uint64, par bool) {
	if at >= now+wheelBuckets {
		w.pushHeap(at, id, par)
		return
	}
	b := int(at) & wheelMask
	wi, bit := id>>6, uint64(1)<<(id&63)
	p := &w.words[b][wi]
	if par {
		k := int(w.slotOf[wi])
		pc := w.pcnt[k]
		if k < len(w.pcnt)-1 {
			if old := *p; old&bit == 0 {
				*p = old | bit
				if pc.n[b]++; pc.n[b] == 1 {
					pc.hit[b>>6] |= 1 << (b & 63)
				}
				if old == 0 {
					w.mark(b, wi)
				}
			}
			return
		}
		for {
			old := atomic.LoadUint64(p)
			if old&bit != 0 {
				return
			}
			if atomic.CompareAndSwapUint64(p, old, old|bit) {
				if atomic.AddUint32(&pc.n[b], 1) == 1 {
					atomicOr(&pc.hit[b>>6], 1<<(b&63))
				}
				if old == 0 {
					w.mark(b, wi)
				}
				return
			}
		}
	}
	if old := *p; old&bit == 0 {
		*p = old | bit
		w.cnt[b]++
		if old == 0 {
			w.sum[b][wi>>6] |= 1 << (wi & 63)
		}
	}
}

// mark sets word wi's summary bit in bucket b from inside the parallel phase:
// plainly when one shard owns every word the summary word covers, else
// atomically.
func (w *wheel) mark(b, wi int) {
	q, bit := &w.sum[b][wi>>6], uint64(1)<<(wi&63)
	if !w.sumShared[wi>>6] {
		*q |= bit
		return
	}
	atomicOr(q, bit)
}

// atomicOr sets bit in *q with a compare-and-swap (go1.22 has no
// atomic.OrUint64).
func atomicOr(q *uint64, bit uint64) {
	for {
		old := atomic.LoadUint64(q)
		if old&bit != 0 || atomic.CompareAndSwapUint64(q, old, old|bit) {
			return
		}
	}
}

// shard prepares the parallel-phase bookkeeping for the given id ranges
// (sorted, disjoint): one count slot per range plus the shared one, each its
// own allocation so that no two workers' counters share a cache line.
func (w *wheel) shard(ranges []ShardRange) {
	w.slotOf = make([]uint16, w.nwords)
	w.pcnt = make([]*phaseCount, len(ranges)+1)
	for k := range w.pcnt {
		w.pcnt[k] = new(phaseCount)
	}
	for k, r := range ranges {
		for wi := r.Lo >> 6; wi < (r.Hi+63)>>6; wi++ {
			w.slotOf[wi] = uint16(k)
		}
	}
	for _, r := range ranges[1:] {
		if r.Lo&63 != 0 {
			w.slotOf[r.Lo>>6] = uint16(len(ranges))
		}
	}
	w.sumShared = make([]bool, (w.nwords+63)>>6)
	for wi, k := range w.slotOf {
		si := wi >> 6
		w.sumShared[si] = w.sumShared[si] || int(k) == len(ranges) || k != w.slotOf[si<<6]
	}
}

// fold adds what the parallel phase counted per slot into cnt.
// Coordinator-only, at the barrier.
func (w *wheel) fold() {
	for _, pc := range w.pcnt {
		for hi, h := range pc.hit {
			for ; h != 0; h &= h - 1 {
				b := hi<<6 + trailingZeros64(h)
				w.cnt[b] += pc.n[b]
				pc.n[b] = 0
			}
			pc.hit[hi] = 0
		}
	}
}

// clear empties the bucket for the cycle that just ran: only the words its
// summary flags, then the summary.
func (w *wheel) clear(slot int) {
	ws, sum := w.words[slot], w.sum[slot]
	for si, s := range sum {
		for ; s != 0; s &= s - 1 {
			ws[si<<6+trailingZeros64(s)] = 0
		}
		sum[si] = 0
	}
	w.cnt[slot] = 0
}

// pushHeap records an out-of-horizon wake. Duplicate (id, at) entries are
// harmless: they resolve to spurious wakes, which are no-ops.
func (w *wheel) pushHeap(at uint64, id int, par bool) {
	if par {
		w.mu.Lock()
		defer w.mu.Unlock()
	}
	w.heap = append(w.heap, wakeEnt{at: at, id: int32(id)})
	for i := len(w.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if w.heap[p].at <= w.heap[i].at {
			break
		}
		w.heap[p], w.heap[i] = w.heap[i], w.heap[p]
		i = p
	}
	if at < w.heapMin {
		w.heapMin = at
	}
}

// drainOverflow moves every heap entry that is now within the horizon into
// its bucket. Coordinator-only (no workers running).
func (w *wheel) drainOverflow(now uint64) {
	for w.heapMin < now+wheelBuckets {
		ent := w.heap[0]
		last := len(w.heap) - 1
		w.heap[0] = w.heap[last]
		w.heap = w.heap[:last]
		// Sift the moved element down.
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && w.heap[c+1].at < w.heap[c].at {
				c++
			}
			if w.heap[i].at <= w.heap[c].at {
				break
			}
			w.heap[i], w.heap[c] = w.heap[c], w.heap[i]
			i = c
		}
		if last == 0 {
			w.heapMin = ^uint64(0)
		} else {
			w.heapMin = w.heap[0].at
		}
		at := ent.at
		if at < now {
			at = now
		}
		w.set(int(ent.id), at, now, false)
	}
}
