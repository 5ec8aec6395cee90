// Package sim provides a deterministic, cycle-driven discrete-event
// simulation kernel. Components register with an Engine and are ticked once
// per cycle; all inter-component communication flows through latency Pipes so
// that results are independent of tick order (every pipe has latency >= 1).
//
// One simulated cycle corresponds to one on-chip network clock period
// (1/1.5 GHz in the Anton 2 configuration).
//
// The engine runs in one of two scheduling modes. ModeScan is the classic
// loop: every registered component is ticked every cycle. ModeActive is an
// active-set scheduler: components are ticked only on cycles for which they
// (or the channels they are bound to) requested a wakeup via Wake, so
// quiescent components cost zero work. Because every inter-component path
// has latency >= 1 and an idle tick is a no-op, a spurious wake can never
// change simulation dynamics — ModeScan is simply the maximal-wake schedule —
// so correctness of ModeActive reduces to wake *completeness*, which the
// differential scan-vs-active test suite pins.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Component is anything ticked once per simulated cycle.
type Component interface {
	// Tick advances the component by one cycle. The component may read
	// from its input pipes and send on its output pipes; sends become
	// visible to receivers no earlier than the next cycle.
	Tick(now uint64)
}

// Mode selects the engine's scheduling strategy.
type Mode uint8

const (
	// ModeScan ticks every component every cycle (the legacy loop, kept as
	// an escape hatch and as the differential-testing reference).
	ModeScan Mode = iota
	// ModeActive ticks only components scheduled via Wake, and lets
	// Run/RunUntil jump over cycles in which nothing is scheduled.
	ModeActive
)

// ShardRange is a half-open range [Lo, Hi) of component ids ticked by one
// shard worker during the parallel phase of a sharded step.
type ShardRange struct{ Lo, Hi int }

// progSlot is one padded per-shard progress counter; padding keeps shard
// workers from false-sharing the counters they bump on every flit transfer.
type progSlot struct {
	v uint64
	_ [7]uint64
}

// Engine drives a set of components through simulated time.
type Engine struct {
	now   uint64
	comps []Component
	mode  Mode

	// progress is bumped by components via ProgressAt; the RunUntil watchdog
	// sums the slots. Slot 0 exists always; sharding adds one slot per shard
	// so workers never contend on a shared counter.
	progress []progSlot

	wheel    wheel
	stepping bool // mid-scan of a cycle: wakes for the current cycle defer to now+1
	par      bool // inside the parallel phase: Wake must use atomic bit-sets

	serialPrefix int
	// Sharded stepping (ConfigureShards). parMin is the per-cycle rule: a
	// cycle with fewer scheduled components is ticked by the coordinator
	// alone, exactly as an unsharded engine would; only a denser one enters
	// the parallel phase. It is math.MaxUint32 on an unsharded engine, so the
	// rule is the one compare every engine pays. In the bucket parSlot the
	// coordinator ticks shard 0 and workers[i] shard i+1 (shardPool).
	shard0  ShardRange
	workers []*shardWorker
	parMin  uint32
	parSlot int
	pool    shardPool
	// onMerge (ConfigureShards' merge), when non-nil, runs after the
	// parallel phase of every cycle that had one, with the barrier still
	// held (no worker ticking). The machine layer uses it to flush staged
	// cross-shard channel sends and apply deferred deliveries in
	// component-id order, which is what makes sharded runs bit-identical
	// to serial ones.
	onMerge func(now uint64)

	// DeadlockDetail, when non-nil, is called once when the RunUntil
	// watchdog fires, to capture a diagnostic snapshot (e.g. a per-router
	// blocked-VC summary) into the returned ErrDeadlock. It runs only on
	// the failure path, so it may be arbitrarily expensive.
	DeadlockDetail func() string

	// obs holds the between-steps observers installed by Observe, in
	// installation order, and nextObs the earliest of their deadlines
	// (^uint64(0) with none installed), so an unobserved engine pays a single
	// predicted compare per clock advance and allocates nothing.
	obs     []observer
	nextObs uint64
}

// NewEngineMode returns an empty engine at cycle 0 in the given mode.
func NewEngineMode(m Mode) *Engine {
	e := &Engine{mode: m, progress: make([]progSlot, 1), nextObs: ^uint64(0), parMin: math.MaxUint32}
	if m == ModeActive {
		e.wheel.init()
	}
	return e
}

// Register adds a component to the tick list and returns its component id.
// Components are ticked in component-id order within a cycle, which—combined
// with latency-1 pipes—keeps runs deterministic. In ModeActive the component
// receives an initial wake at the current cycle; afterwards it is ticked only
// on cycles it (or a channel bound to it) scheduled via Wake.
func (e *Engine) Register(c Component) int {
	id := len(e.comps)
	e.comps = append(e.comps, c)
	if e.mode == ModeActive {
		e.wheel.grow(len(e.comps))
		e.Wake(id, e.now)
	}
	return id
}

// Reserve sizes the engine for n registered components before they
// register: the component list and, in ModeActive, the wake wheel grow once
// instead of as Register goes. Registration-time only.
func (e *Engine) Reserve(n int) {
	e.comps = slices.Grow(e.comps, max(0, n-len(e.comps)))
	if e.mode == ModeActive {
		e.wheel.grow(n)
	}
}

// SetSerialPrefix marks components with id < n as the serial prefix: they
// are ticked by the coordinator before the rest of the cycle's active set,
// and — uniquely — wakes they issue for the current cycle take effect in the
// current cycle (targets must have ids >= n). The machine layer puts its
// fault layer here so that e.g. a credit-resync audit at cycle t unblocks a
// sender at cycle t, exactly as in scan mode where the fault layer is
// registered (and therefore ticked) first.
func (e *Engine) SetSerialPrefix(n int) { e.serialPrefix = n }

// parallelMinReady is the scheduled-component count from which a cycle of a
// sharded engine is stepped in parallel; below it the hand-off costs more
// than the shards save. Measured on the 2-vCPU benchmark host by timing every
// stepped cycle of a run once forced serial and once forced parallel with 2
// shards (three alternating repetitions, median per cycle) and comparing the
// median cycle per ready-count bin, serial vs parallel in us:
//
//	ready        8x8x8 burst  8x4x4 burst  4x4x2 burst  4x4x2 mdstep
//	1-15           6.5 / 5.9    2.8 / 4.3    1.5 / 3.8    1.0 / 2.7
//	16-31         10.2 / 7.8    6.5 / 6.8    4.4 / 6.6    5.3 / 6.2
//	32-63         22.9 / 16.1  15.3 / 11.4   8.1 / 9.3   10.1 / 11.1
//	64-127        41.8 / 24.5  27.3 / 19.0  17.4 / 15.8  19.4 / 16.7
//	128-255         88 / 48      57 / 33      36 / 26      40 / 28
//	512-1023       398 / 203    279 / 136    205 / 125    192 / 99
//	2048-4095     2206 / 944   1365 / 651       -            -
//
// (burst: the uniform batch-4 fig9 point, whose ramp, plateau and drain sweep
// the ready count from 1 to ~20 000 at 8x8x8; mdstep: the 4-timestep MD
// workload, 2 285 of whose 4 073 stepped cycles schedule 64 or more.) With
// the shard pool the hand-off costs ~2 us while the workers spin, so the
// crossover sits between 16 and 64 ready on the cache-resident machines and
// below 16 on the 512-node one. 64 is the first bin no measured run loses in
// (the 4x4x2 burst's seven cycles above 1 023 are its first nine, cold and
// noisy either way). A constant, not a knob: the choice never changes a
// result, only which of two bit-identical ways a cycle is executed.
const parallelMinReady = 64

// ConfigureShards splits the component-id space for sharded stepping. The
// serial prefix (SetSerialPrefix) is ticked by the coordinator first (in id
// order). A cycle with fewer than parallelMinReady scheduled components is
// then finished by the coordinator too, the same way an unsharded engine
// would; a denser one ticks each range on a goroutine of its own (the first
// on the coordinator's) and runs merge (may be nil) at the barrier. Ranges must be sorted, disjoint, and cover
// [serial prefix, len(comps)), with every component already registered. While
// the workers run, a component may wake only components of its own range
// (itself, or a peer it reaches without leaving the shard): each worker then
// owns its part of the wake wheel outright. Whatever crosses a range is the
// caller's to stage and to wake from merge. Only valid in ModeActive.
func (e *Engine) ConfigureShards(ranges []ShardRange, merge func(now uint64)) {
	if e.mode != ModeActive {
		panic("sim: ConfigureShards requires ModeActive")
	}
	e.onMerge = merge
	e.parMin = parallelMinReady
	e.shard0 = ShardRange{Lo: max(ranges[0].Lo, e.serialPrefix), Hi: ranges[0].Hi}
	e.workers = e.workers[:0]
	for _, r := range ranges[1:] {
		w := &shardWorker{lo: max(r.Lo, e.serialPrefix), hi: r.Hi, tok: make(chan struct{}, 1)}
		w.run = func() { e.work(w) }
		e.workers = append(e.workers, w)
	}
	e.wheel.shard(ranges)
	if n := len(ranges); n > len(e.progress) {
		e.progress = make([]progSlot, n)
	}
}

// Parallel reports whether the shards are ticking, that is whether the
// caller is inside the parallel phase of a sharded cycle. The machine layer
// stages cross-shard effects only then; in a serially stepped cycle the
// coordinator ticks every component in id order — the reference order — so
// the same effects are applied directly.
func (e *Engine) Parallel() bool { return e.par }

// ForceParallelForTest overrides the per-cycle rule of a sharded engine: from
// now on the cycle at clock now is stepped in parallel exactly when
// parallel(now) says so. It works through an every-cycle observer, so the
// engine no longer jumps idle stretches — which changes no result. Tests use
// it to pin that either choice, in any interleaving, is bit-identical to the
// reference. An unsharded engine has no choice to force and is left alone.
func (e *Engine) ForceParallelForTest(parallel func(now uint64) bool) {
	if len(e.workers) == 0 {
		return
	}
	set := func(now uint64) uint64 {
		e.parMin = math.MaxUint32
		if parallel(now) {
			e.parMin = 0
		}
		return now + 1
	}
	e.Observe(set(e.now), set)
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// ProgressAt notes forward progress (e.g. a packet delivery or a flit
// transfer) from the given shard; the deadlock watchdog in RunUntil uses it.
// Each shard owns a padded counter, so workers never contend; the watchdog
// sums all slots. Code running outside the parallel phase uses slot 0.
func (e *Engine) ProgressAt(shard int) { e.progress[shard].v++ }

func (e *Engine) progressTotal() uint64 {
	t := uint64(0)
	for i := range e.progress {
		t += e.progress[i].v
	}
	return t
}

// observer is one installed between-steps hook and its next deadline.
type observer struct {
	at uint64
	fn func(now uint64) (next uint64)
}

// Observe installs fn as a between-steps observer: it runs whenever the
// clock arrives at or past its deadline — at the end of the step that
// completes cycle deadline-1, or at the end of an idle jump, which is clamped
// to the earliest deadline exactly as it is to the budget and the watchdog —
// with the simulation fully settled (no component mid-tick) and now the cycle
// about to execute. first is the first deadline; fn returns the next one, and
// a value <= now uninstalls the observer. Deadlines are therefore the same
// clocks in scan, active and sharded engines, under Run and RunUntil alike;
// an observer returning now+1 sees every cycle. Observers due at the same
// clock run in installation order. fn must only read simulation state, and
// must not call Observe.
func (e *Engine) Observe(first uint64, fn func(now uint64) (next uint64)) {
	e.obs = append(e.obs, observer{at: first, fn: fn})
	e.nextObs = min(e.nextObs, first)
}

// arrive moves the clock to t and runs every observer whose deadline that
// reaches, dropping the ones that uninstall themselves.
func (e *Engine) arrive(t uint64) {
	e.now = t
	if t < e.nextObs {
		return
	}
	kept := e.obs[:0]
	e.nextObs = ^uint64(0)
	for _, o := range e.obs {
		if o.at <= t {
			if o.at = o.fn(t); o.at <= t {
				continue
			}
		}
		kept = append(kept, o)
		e.nextObs = min(e.nextObs, o.at)
	}
	clear(e.obs[len(kept):])
	e.obs = kept
}

// ResetTo rewinds (or fast-forwards) the engine to cycle now with nothing
// scheduled: every pending wake, overflow-heap entry, and progress count is
// discarded. Restore paths use it on a freshly built engine before
// re-issuing the wakes implied by the restored state (pipe arrivals plus a
// blanket WakeAll — extra wakes are harmless, missing ones are not).
// Observers stay installed with their deadlines; one the new clock has
// already passed runs at the next clock advance.
func (e *Engine) ResetTo(now uint64) {
	e.now = now
	if e.mode == ModeActive {
		e.wheel.reset()
	}
	for i := range e.progress {
		e.progress[i].v = 0
	}
}

// WakeAll schedules every registered component at the current cycle. Under
// ModeScan it is a no-op (everything ticks anyway). A spurious tick is a
// no-op by construction, so WakeAll never changes dynamics — it only
// guarantees that after a state restore no component sleeps through work
// its restored state implies.
func (e *Engine) WakeAll() {
	for id := range e.comps {
		e.Wake(id, e.now)
	}
}

// Wake schedules component id to be ticked at cycle at (ModeScan ignores it:
// every component is ticked every cycle anyway). Wakes in the past clamp to
// the current cycle — or to the next cycle while a step is in progress, so
// the bucket being drained is never mutated mid-scan. Extra wakes are
// harmless: an idle tick is a no-op by construction. Inside the parallel phase
// of a sharded cycle id must belong to the calling worker's own range
// (ConfigureShards).
func (e *Engine) Wake(id int, at uint64) {
	if e.mode != ModeActive {
		return
	}
	if at <= e.now {
		at = e.now
		if e.stepping {
			at++
		}
	}
	e.wheel.set(id, at, e.now, e.par)
}

// Scheduled reports whether component id ticks in the cycle Now: a wake for
// it is pending at Now. In ModeScan every component ticks every cycle. Call
// it between Run calls only. The wake contract tests use it to tick the
// components that sleep through a cycle anyway and find the tick a no-op.
func (e *Engine) Scheduled(id int) bool {
	if e.mode != ModeActive {
		return true
	}
	w := &e.wheel
	w.drainOverflow(e.now)
	return w.words[int(e.now)&wheelMask][id>>6]>>(id&63)&1 != 0
}

func (e *Engine) step() {
	if e.mode == ModeScan {
		for _, c := range e.comps {
			c.Tick(e.now)
		}
	} else {
		e.stepActive()
	}
	e.arrive(e.now + 1)
}

// stepActive ticks only the components scheduled for the current cycle. The
// serial prefix ticks first with same-cycle wakes still honored (its targets
// have higher ids, in bucket words not yet scanned); for everything after,
// the stepping flag defers same-cycle wakes to the next cycle so the bucket
// is never mutated behind the scan. A sharded engine then chooses per cycle:
// a sparse cycle takes the same tickRange over the whole id range an
// unsharded engine takes (no goroutine, no atomic wake path, no barrier),
// and only a dense one is worth the parallel phase.
func (e *Engine) stepActive() {
	w := &e.wheel
	w.drainOverflow(e.now)
	slot := int(e.now) & wheelMask
	if w.cnt[slot] == 0 {
		return
	}
	if e.serialPrefix > 0 {
		e.tickRange(slot, 0, e.serialPrefix)
	}
	e.stepping = true
	if w.cnt[slot] < e.parMin {
		e.tickRange(slot, e.serialPrefix, len(e.comps))
	} else {
		e.stepParallel(slot)
	}
	e.stepping = false
	w.clear(slot)
}

// stepParallel runs the parallel phase of one cycle: the coordinator opens
// it to the shard workers, ticks shard 0 itself while they tick the rest, and
// runs the merge hook once all have finished. Determinism argument: within a
// cycle, components only push into latency>=1 pipes, so intra-shard tick
// order (id order, same as serial) is the only order that matters for
// shard-local state; all cross-shard effects are staged by the machine layer
// and applied by onMerge in id order with their original arrival cycles, so
// the post-barrier state is bit-identical to a serial step.
func (e *Engine) stepParallel(slot int) {
	e.par, e.parSlot = true, slot
	p := &e.pool
	if !p.live {
		e.startPool()
	}
	p.pending.Store(int32(len(e.workers)))
	p.gen.Add(1)
	for _, w := range e.workers {
		w.post()
	}
	e.tickRange(slot, e.shard0.Lo, e.shard0.Hi)
	for i := 1; p.pending.Load() != 0; i++ {
		if i%spinPolls == 0 {
			runtime.Gosched()
		}
	}
	e.par = false
	e.wheel.fold()
	if e.onMerge != nil {
		e.onMerge(e.now)
	}
}

// shardPool is the phase barrier of a sharded engine. Its worker goroutines
// live from the first parallel cycle of a Run or RunUntil call until that
// call returns, so none outlives the call or holds a finished machine. The
// coordinator opens a phase by setting parSlot and par and bumping gen, which
// publishes them; a worker that sees gen move ticks its shard and decrements
// pending, and the coordinator, done with shard 0, yields until pending is
// zero. Between phases a worker spins, yielding, for
// up to workerSpin, then parks on its one-slot token, which the coordinator
// posts at every phase: a spinning worker starts a phase in well under a
// microsecond, a parked one only once the runtime has woken a thread for it.
// Every spin yields, so a pool also finishes on a single core.
type shardPool struct {
	_       [64]byte // keep the spun-on words off the engine's hot fields
	gen     atomic.Uint64
	pending atomic.Int32
	live    bool // worker goroutines are running
	quit    bool // published by the gen bump that stops them
	exited  sync.WaitGroup
	_       [64]byte
}

// workerSpin is how long a worker spins for the next phase before it parks.
// It spans the serial cycles a dense run steps between two parallel ones.
const workerSpin = 100 * time.Microsecond

// spinPolls is how many times a spinning goroutine polls between yields.
const spinPolls = 1024

// shardWorker is one pool worker, ticking the range [lo, hi). run is its
// goroutine body, built once so that starting the pool allocates nothing.
type shardWorker struct {
	lo, hi int
	seen   uint64        // the last generation this worker acted on
	tok    chan struct{} // one slot: posted every phase, taken only to unpark
	run    func()
}

// post hands w the token without ever blocking: a full slot already wakes it.
func (w *shardWorker) post() {
	select {
	case w.tok <- struct{}{}:
	default:
	}
}

// startPool starts one goroutine per worker. Coordinator-only.
func (e *Engine) startPool() {
	p := &e.pool
	p.live, p.quit = true, false
	g := p.gen.Load()
	p.exited.Add(len(e.workers))
	for _, w := range e.workers {
		select { // a token left by the last pool's stop
		case <-w.tok:
		default:
		}
		w.seen = g
		go w.run()
	}
}

// stopPool ends the pool, if one runs, and returns once every worker has
// exited. Coordinator-only, between phases.
func (e *Engine) stopPool() {
	p := &e.pool
	if !p.live {
		return
	}
	p.live, p.quit = false, true
	p.gen.Add(1)
	for _, w := range e.workers {
		w.post()
	}
	p.exited.Wait()
}

// work is a worker goroutine: one shard tick per phase until the pool stops.
// It scrubs the stack its ticks will use first (ScrubStack).
func (e *Engine) work(w *shardWorker) {
	ScrubStack()
	p := &e.pool
	for {
		e.await(w)
		if p.quit {
			p.exited.Done()
			return
		}
		e.tickRange(e.parSlot, w.lo, w.hi)
		p.pending.Add(-1)
	}
}

// await returns once the generation has moved past w.seen, recording it.
func (e *Engine) await(w *shardWorker) {
	p := &e.pool
	for {
		start := time.Now()
		for i := 1; ; i++ {
			if g := p.gen.Load(); g != w.seen {
				w.seen = g
				return
			}
			if i%spinPolls == 0 {
				if i%(64*spinPolls) == 0 && time.Since(start) > workerSpin {
					break
				}
				runtime.Gosched()
			}
		}
		<-w.tok
	}
}

// ScrubStack zeroes the 32 KB of goroutine stack below its caller's frame.
// The runtime hands out stack memory unzeroed, so the dead slots of a frame
// can hold pointers a finished run left there, and a collection that
// preempts a goroutine asynchronously scans the interrupted frame
// conservatively, dead slots included. One such slot keeps a whole finished
// machine marked live while the next is built, and doubles the heap goal.
// The next machine lays its build frames (machine.New) and its shard
// workers' tick frames exactly where a finished one ran, so both scrub first.
//
//go:noinline
func ScrubStack() {
	var buf [32 << 10]byte
	keep(buf[:])
}

//go:noinline
func keep([]byte) {}

// tickRange ticks every scheduled component with id in [lo, hi), in id
// order. It visits only the words the bucket's summary flags, and re-reads the
// summary word after each visited word, so a wake set for this cycle ahead of
// the walk still ticks in it, as when every word was read in turn.
func (e *Engine) tickRange(slot, lo, hi int) {
	words, sum := e.wheel.words[slot], e.wheel.sum[slot]
	wlo, whi := lo>>6, (hi+63)>>6
	for si := wlo >> 6; si < (whi+63)>>6; si++ {
		// m keeps the summary bits of the words in [wlo, whi) not yet visited.
		m := ^uint64(0)
		if si == wlo>>6 {
			m <<= wlo & 63
		}
		if si == (whi-1)>>6 && whi&63 != 0 {
			m &= ^uint64(0) >> (64 - whi&63)
		}
		for s := sum[si] & m; s != 0; s = sum[si] & m {
			k := trailingZeros64(s)
			m &= ^uint64(0) << k << 1
			wi := si<<6 + k
			bits := words[wi]
			// Mask edge words so a range never ticks a neighbor shard's ids.
			if wi == wlo && lo&63 != 0 {
				bits &= ^uint64(0) << (lo & 63)
			}
			if wi == whi-1 && hi&63 != 0 {
				bits &= ^uint64(0) >> (64 - hi&63)
			}
			e.tickWord(wi<<6, bits)
		}
	}
}

// tickWord ticks the components of one bucket word, base being the id of its
// bit 0. It stays out of line so that the per-tick loop reloads only its own
// three values after each Tick call, not the whole walk's state: with the
// loop inline, a dense cycle of cheap ticks (1 632 components, ~1 000 ticked)
// stepped ~10 % slower than before the summary words, and out of line ~9 %
// faster (medians of paired runs on a 2-vCPU host).
//
//go:noinline
func (e *Engine) tickWord(base int, bits uint64) {
	for ; bits != 0; bits &= bits - 1 {
		e.comps[base+trailingZeros64(bits)].Tick(e.now)
	}
}

// nextWake returns the earliest cycle >= now with a scheduled component, or
// ^uint64(0) when nothing is scheduled at all.
func (e *Engine) nextWake() uint64 {
	w := &e.wheel
	w.drainOverflow(e.now)
	for d := uint64(0); d < wheelBuckets; d++ {
		if w.cnt[int(e.now+d)&wheelMask] != 0 {
			return e.now + d
		}
	}
	return w.heapMin
}

// Run advances the simulation by n cycles. In ModeActive, stretches of
// cycles with no scheduled component are skipped in one clock jump; the
// observable end state (component state, Now, progress) is identical to
// stepping through them, because idle ticks are no-ops.
func (e *Engine) Run(n uint64) {
	_ = e.run(nil, n, 0) // no predicate and no watchdog: nothing to fail
}

// ErrDeadlock is returned by RunUntil when no component reports progress for
// the configured watchdog window while the completion predicate is false. It
// carries a diagnostic snapshot: the cycle the watchdog fired, the cycle of
// the last observed progress, and (when the engine has a DeadlockDetail
// provider) a per-router summary of blocked state.
type ErrDeadlock struct {
	Cycle        uint64
	Window       uint64
	LastProgress uint64 // cycle at which progress was last observed
	Detail       string // optional component snapshot, one line per blocked unit
}

func (e *ErrDeadlock) Error() string {
	msg := fmt.Sprintf("sim: no progress for %d cycles at cycle %d (deadlock or starvation; last progress at cycle %d)",
		e.Window, e.Cycle, e.LastProgress)
	if e.Detail != "" {
		msg += "\n" + e.Detail
	}
	return msg
}

// ErrTimeout is returned by RunUntil when maxCycles elapse before done()
// becomes true.
type ErrTimeout struct{ Cycle uint64 }

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("sim: run exceeded budget at cycle %d", e.Cycle)
}

// RunUntil steps the simulation until done() returns true. It fails with
// ErrDeadlock if no progress is observed for watchdog cycles, or ErrTimeout
// after maxCycles. A watchdog of 0 disables deadlock detection.
//
// In ModeActive idle stretches are skipped; jump targets are clamped to the
// budget end, to the watchdog deadline and to the earliest observer deadline,
// so observers run at — and the error cycle numbers (ErrTimeout.Cycle,
// ErrDeadlock.Cycle/LastProgress) are — exactly the clocks the scan-mode loop
// would have produced.
func (e *Engine) RunUntil(done func() bool, maxCycles, watchdog uint64) error {
	return e.run(done, maxCycles, watchdog)
}

// run is the one run loop: Run is run with no predicate (a spent budget is
// then the normal way out, not an ErrTimeout) and no watchdog.
func (e *Engine) run(done func() bool, maxCycles, watchdog uint64) error {
	defer e.stopPool()
	end := e.now + maxCycles
	lastProgress := e.progressTotal()
	lastProgressAt := e.now
	for done == nil || !done() {
		if e.now >= end {
			if done == nil {
				return nil
			}
			return &ErrTimeout{Cycle: e.now}
		}
		t := e.now
		if e.mode == ModeActive {
			t = min(e.nextWake(), end, e.nextObs)
			if watchdog != 0 {
				t = min(t, lastProgressAt+watchdog)
			}
		}
		if t > e.now {
			// The skipped cycles are idle: no component ticks, so no
			// progress, and the watchdog below fires at the same cycle scan
			// mode would have (lastProgressAt + watchdog).
			e.arrive(t)
		} else {
			e.step()
		}
		if watchdog == 0 {
			continue
		}
		if p := e.progressTotal(); p != lastProgress {
			lastProgress = p
			lastProgressAt = e.now
		} else if e.now-lastProgressAt >= watchdog {
			err := &ErrDeadlock{Cycle: e.now, Window: watchdog, LastProgress: lastProgressAt}
			if e.DeadlockDetail != nil {
				err.Detail = e.DeadlockDetail()
			}
			return err
		}
	}
	return nil
}
