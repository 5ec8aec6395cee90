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
	"sync"
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

	// progress is bumped by components via Progress/ProgressAt; the RunUntil
	// watchdog sums the slots. Slot 0 exists always; sharding adds one slot
	// per shard so workers never contend on a shared counter.
	progress []progSlot

	wheel    wheel
	stepping bool // inside Step: wakes for the current cycle defer to now+1
	par      bool // inside the parallel phase: Wake must use atomic bit-sets

	serialPrefix int
	// Sharded stepping (ConfigureShards). parMin is the per-cycle rule: a
	// cycle with fewer scheduled components is ticked by the coordinator
	// alone, exactly as an unsharded engine would; only a denser one enters
	// the parallel phase. It is math.MaxUint32 on an unsharded engine, so the
	// rule is the one compare every engine pays. workers[i] ticks shard i in
	// the bucket parSlot; the closures are built once so a parallel cycle
	// allocates nothing.
	workers []func()
	parMin  uint32
	parSlot int
	wg      sync.WaitGroup
	// OnMerge, when non-nil, runs after the parallel phase of every cycle
	// that had one, with the barrier still held (no workers running). The
	// machine layer uses it to flush staged cross-shard channel sends and
	// apply deferred deliveries in component-id order, which is what makes
	// sharded runs bit-identical to serial ones.
	OnMerge func(now uint64)

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

// SetSerialPrefix marks components with id < n as the serial prefix: they
// are ticked by the coordinator before the rest of the cycle's active set,
// and — uniquely — wakes they issue for the current cycle take effect in the
// current cycle (targets must have ids >= n). The machine layer puts its
// fault layer here so that e.g. a credit-resync audit at cycle t unblocks a
// sender at cycle t, exactly as in scan mode where the fault layer is
// registered (and therefore ticked) first.
func (e *Engine) SetSerialPrefix(n int) { e.serialPrefix = n }

// ParallelMinReady is the scheduled-component count from which a cycle of a
// sharded engine is stepped in parallel; below it the hand-off costs more
// than the shards save. Measured on the 2-vCPU benchmark host by timing every
// stepped cycle of a run once forced serial and once forced parallel with 2
// shards (three alternating repetitions, median per cycle) and comparing the
// median cycle per ready-count bin, serial vs parallel in us:
//
//	ready        8x8x8 burst  8x4x4 burst  4x4x2 burst  4x4x2 mdstep
//	256-383        62 / 70      41 / 63      36 / 63      37 / 66
//	512-639       125 / 127     84 / 108    100 / 105     90 / 114
//	768-895       199 / 157    141 / 137       -         172 / 175
//	1024-1279     298 / 228    221 / 204    200 / 171    206 / 215
//	2048-3071     787 / 422    755 / 443       -            -
//	8192+        3739 / 2126      -            -            -
//
// (burst: the uniform batch-4 fig9 point, whose ramp, plateau and drain sweep
// the ready count from 1 to ~20 000 at 8x8x8; mdstep: the 4-timestep MD
// workload, 429 of whose 4 152 stepped cycles fall in the 512-639 bin.) A tick
// costs 0.15-0.3 us — less on a machine that fits the cache — and the hand-off
// ~5 us while the second thread still spins and 20-40 us once it has parked,
// which it has whenever cycles are this long. On the 512-node machine the
// crossover is near 400 ready, on the cache-resident ones between 640 and
// 1 024, and the MD timestep, whose deliveries do their work at the barrier,
// only ties from there. 1 024 is the first bin no measured run loses in; what
// the 8x8x8 burst forgoes between 400 and 1 024 is 0.2 % of its wall time. A
// constant, not a knob: the choice never changes a result, only which of two
// bit-identical ways a cycle is executed.
const ParallelMinReady = 1024

// ConfigureShards splits the component-id space for sharded stepping.
// Components with id < serialPrefix are ticked by the coordinator first (in
// id order). A cycle with fewer than ParallelMinReady scheduled components is
// then finished by the coordinator too, the same way an unsharded engine
// would; a denser one ticks each range on its own goroutine and runs merge
// (may be nil) at the barrier. Ranges must be sorted, disjoint, and cover
// [serialPrefix, len(comps)), with every component already registered. While
// the workers run, a component may wake only components of its own range
// (itself, or a peer it reaches without leaving the shard): each worker then
// owns its part of the wake wheel outright. Whatever crosses a range is the
// caller's to stage and to wake from merge. Only valid in ModeActive.
func (e *Engine) ConfigureShards(ranges []ShardRange, serialPrefix int, merge func(now uint64)) {
	if e.mode != ModeActive {
		panic("sim: ConfigureShards requires ModeActive")
	}
	e.serialPrefix = serialPrefix
	e.OnMerge = merge
	e.parMin = ParallelMinReady
	e.workers = e.workers[:0]
	for _, r := range ranges {
		r.Lo = max(r.Lo, serialPrefix)
		e.workers = append(e.workers, func() {
			e.tickRange(e.parSlot, r.Lo, r.Hi)
			e.wg.Done()
		})
	}
	e.wheel.shard(ranges)
	if n := len(ranges); n > len(e.progress) {
		e.progress = make([]progSlot, n)
	}
}

// Parallel reports whether shard workers are running, that is whether the
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

// Progress notes that forward progress (e.g. a packet delivery or a flit
// transfer) occurred. The deadlock watchdog in RunUntil uses it. Only the
// coordinator (or code running outside the parallel phase) may call it;
// shard workers use ProgressAt with their own slot.
func (e *Engine) Progress() { e.progress[0].v++ }

// ProgressAt notes forward progress from the given shard. Each shard owns a
// padded counter, so workers never contend; the watchdog sums all slots.
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
// clock arrives at or past its deadline — at the end of the Step that
// completes cycle deadline-1, or at the end of an idle jump, which is clamped
// to the earliest deadline exactly as it is to the budget and the watchdog —
// with the simulation fully settled (no component mid-tick) and now the cycle
// about to execute. first is the first deadline; fn returns the next one, and
// a value <= now uninstalls the observer. Deadlines are therefore the same
// clocks in scan, active and sharded engines, under Step, Run and RunUntil
// alike; an observer returning now+1 sees every cycle. Observers due at the
// same clock run in installation order. fn must only read simulation state,
// and must not call Observe.
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

// Step advances the simulation by a single cycle, then runs the observers
// due at the new clock.
func (e *Engine) Step() {
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

// stepParallel runs the parallel phase of one cycle: one goroutine per shard
// over its id range, then the merge hook at the barrier. (The coordinator
// waits rather than ticking a shard itself: a lone spawned goroutine sits in
// the coordinator's runnext slot, which an idle P steals only after a sleep —
// measured 40-60 us per cycle on the benchmark host, against ~5 us for the
// spawn-all-and-wait hand-off.) Determinism argument: within a cycle,
// components only push into latency>=1 pipes, so intra-shard tick order (id
// order, same as serial) is the only order that matters for shard-local state;
// all cross-shard effects are staged by the machine layer and applied by
// OnMerge in id order with their original arrival cycles, so the post-barrier
// state is bit-identical to a serial step.
func (e *Engine) stepParallel(slot int) {
	e.par, e.parSlot = true, slot
	e.wg.Add(len(e.workers))
	for _, w := range e.workers {
		go w()
	}
	e.wg.Wait()
	e.par = false
	e.wheel.fold()
	if e.OnMerge != nil {
		e.OnMerge(e.now)
	}
}

// tickRange ticks every scheduled component with id in [lo, hi).
func (e *Engine) tickRange(slot, lo, hi int) {
	words := e.wheel.words[slot]
	wlo, whi := lo>>6, (hi+63)>>6
	for wi := wlo; wi < whi; wi++ {
		bits := words[wi]
		if bits == 0 {
			continue
		}
		// Mask edge words so a range never ticks a neighbor shard's ids.
		if wi == wlo && lo&63 != 0 {
			bits &= ^uint64(0) << (lo & 63)
		}
		if wi == whi-1 && hi&63 != 0 {
			bits &= ^uint64(0) >> (64 - hi&63)
		}
		for bits != 0 {
			id := wi<<6 + trailingZeros64(bits)
			bits &= bits - 1
			e.comps[id].Tick(e.now)
		}
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
			e.Step()
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
