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
type wheel struct {
	words  [wheelBuckets][]uint64
	cnt    [wheelBuckets]uint32 // scheduled bits per bucket (0 = skip/clear fast path)
	nwords int

	// Parallel-phase bookkeeping of a sharded engine (shard). A worker wakes
	// only components of its own shard, so it owns every bucket word that
	// lies inside its id range and writes it plainly, counting into its own
	// slot of pcnt; only a word whose ids straddle two ranges is shared, and
	// goes through the atomic path into the last slot. slotOf[wi] names the
	// slot of word wi. The coordinator folds the slots into cnt at the
	// barrier, so no word is shared by the workers but the straddling ones.
	slotOf []uint16
	pcnt   []*[wheelBuckets]uint32

	mu      sync.Mutex // guards heap pushes during the parallel phase
	heap    []wakeEnt
	heapMin uint64 // heap[0].at, or ^uint64(0) when empty
}

func (w *wheel) init() { w.heapMin = ^uint64(0) }

// reset discards every scheduled wake: all buckets cleared, heap emptied.
// Engine.ResetTo uses it when restoring a snapshot; the restore path then
// re-issues every wake the restored state implies.
func (w *wheel) reset() {
	for b := range w.words {
		ws := w.words[b]
		for i := range ws {
			ws[i] = 0
		}
		w.cnt[b] = 0
	}
	w.heap = w.heap[:0]
	w.heapMin = ^uint64(0)
}

// grow widens every bucket to cover n components. Registration-time only.
func (w *wheel) grow(n int) {
	nw := (n + 63) >> 6
	if nw <= w.nwords {
		return
	}
	for b := range w.words {
		for len(w.words[b]) < nw {
			w.words[b] = append(w.words[b], 0)
		}
	}
	w.nwords = nw
}

// set schedules component id at cycle at (caller guarantees at >= now). With
// par set (shard workers running) the caller is the worker of id's shard: the
// count goes to a per-shard slot, and the bit is set atomically only in a word
// two shards share. The serial path stays branch-cheap and allocation-free.
func (w *wheel) set(id int, at, now uint64, par bool) {
	if at >= now+wheelBuckets {
		w.pushHeap(at, id, par)
		return
	}
	b := int(at) & wheelMask
	wi, bit := id>>6, uint64(1)<<(id&63)
	if par {
		p, k := &w.words[b][wi], int(w.slotOf[wi])
		if k < len(w.pcnt)-1 {
			if *p&bit == 0 {
				*p |= bit
				w.pcnt[k][b]++
			}
			return
		}
		for {
			old := atomic.LoadUint64(p)
			if old&bit != 0 {
				return
			}
			if atomic.CompareAndSwapUint64(p, old, old|bit) {
				atomic.AddUint32(&w.pcnt[k][b], 1)
				return
			}
		}
	}
	if w.words[b][wi]&bit == 0 {
		w.words[b][wi] |= bit
		w.cnt[b]++
	}
}

// shard prepares the parallel-phase bookkeeping for the given id ranges
// (sorted, disjoint): one count slot per range plus the shared one, each its
// own allocation so that no two workers' counters share a cache line.
func (w *wheel) shard(ranges []ShardRange) {
	w.slotOf = make([]uint16, w.nwords)
	w.pcnt = make([]*[wheelBuckets]uint32, len(ranges)+1)
	for k := range w.pcnt {
		w.pcnt[k] = new([wheelBuckets]uint32)
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
}

// fold adds what the parallel phase counted per slot into cnt.
// Coordinator-only, at the barrier.
func (w *wheel) fold() {
	for _, pc := range w.pcnt {
		for b, n := range pc {
			if n != 0 {
				w.cnt[b] += n
				pc[b] = 0
			}
		}
	}
}

// clear empties the bucket for the cycle that just ran.
func (w *wheel) clear(slot int) {
	ws := w.words[slot]
	for i := range ws {
		ws[i] = 0
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
