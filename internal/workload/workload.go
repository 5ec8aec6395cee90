// Package workload models an MD timestep as dependent communication phases —
// the application-shaped traffic the Anton 2 network exists to serve. A
// timestep is three phases run back to back on one machine:
//
//	halo      — every core exchanges position data with nodes within an
//	            n-hop neighborhood, in bursts (traffic.Bursty over NHop)
//	multicast — every node distributes forces to its plane neighborhood
//	            through the compiled multicast tables of Section 2.3
//	reduce    — all cores send partial sums to the root node's cores
//	            (the global reduction closing the timestep)
//
// A phase completes when all of its deliveries have arrived and the fabric
// is quiescent (machine.Quiet) — the phase barrier — and the next phase's
// injections start on that exact cycle. The result is end-to-end timestep
// time, cycles per phase and total, rather than steady-state throughput.
//
// Quiescence is detected by stepping the engine manually, never through
// RunUntil: active-mode idle-cycle jumping would observe the quiet fabric at
// an engine-dependent cycle, and phase times must be bit-identical across
// the scan, active, and sharded kernels.
//
// Runs can record their injections into the internal/trace format
// (route choices captured pre strategy-Choose), and ReplayTrace re-injects a
// capture on a fresh identically-configured machine, reproducing the
// original per-phase cycle counts exactly.
package workload

import (
	"fmt"
	"math/rand"

	"anton2/internal/machine"
	"anton2/internal/multicast"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/topo"
	"anton2/internal/trace"
	"anton2/internal/traffic"
)

// Phase indices, in execution order.
const (
	PhaseHalo = iota
	PhaseMulticast
	PhaseReduce
	numPhases
)

var phaseNames = [numPhases]string{"halo", "multicast", "reduce"}

// PhaseName returns the report name of a phase index.
func PhaseName(i int) string {
	if i >= 0 && i < numPhases {
		return phaseNames[i]
	}
	return fmt.Sprintf("phase%d", i)
}

// Spec parameterizes one MD timestep. The zero value of any field means its
// default; Canonical strings (and therefore experiment cache keys) are always
// written with defaults applied.
type Spec struct {
	// HaloRadius is the neighbor-exchange locality in hops per dimension
	// (default 1: the 26-node neighborhood).
	HaloRadius int
	// HaloPackets is the number of halo packets each core sends per
	// timestep (default 8), in bursts of mean length HaloBurst (default 4).
	HaloPackets int
	HaloBurst   int
	// FanoutRadius is the plane-neighborhood radius of the force
	// multicast (default 1: the 3x3 XY plane around each node).
	FanoutRadius int
	// Multicasts is the number of multicast rounds each node injects per
	// timestep, alternating torus slices (default 2).
	Multicasts int
	// ReducePackets is the number of reduction packets each non-root core
	// sends to the root node (default 2).
	ReducePackets int
	// Timesteps is the number of timesteps run back to back (default 1).
	Timesteps int
}

// DefaultSpec is the baseline timestep used by the mdstep experiment family.
func DefaultSpec() Spec {
	return Spec{HaloRadius: 1, HaloPackets: 8, HaloBurst: 4, FanoutRadius: 1, Multicasts: 2, ReducePackets: 2, Timesteps: 1}
}

// WithDefaults replaces zero fields with their defaults.
func (s Spec) WithDefaults() Spec {
	d := DefaultSpec()
	if s.HaloRadius == 0 {
		s.HaloRadius = d.HaloRadius
	}
	if s.HaloPackets == 0 {
		s.HaloPackets = d.HaloPackets
	}
	if s.HaloBurst == 0 {
		s.HaloBurst = d.HaloBurst
	}
	if s.FanoutRadius == 0 {
		s.FanoutRadius = d.FanoutRadius
	}
	if s.Multicasts == 0 {
		s.Multicasts = d.Multicasts
	}
	if s.ReducePackets == 0 {
		s.ReducePackets = d.ReducePackets
	}
	if s.Timesteps == 0 {
		s.Timesteps = d.Timesteps
	}
	return s
}

// Validate rejects nonsensical or service-abusive specs. Bounds are loose —
// they exist so a bad request cannot ask the experiment server for an
// unbounded amount of simulation.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	for _, c := range []RangeError{
		{"halo", s.HaloRadius, 1, 8},
		{"halopackets", s.HaloPackets, 1, 1024},
		{"haloburst", s.HaloBurst, 1, 256},
		{"fanout", s.FanoutRadius, 1, 8},
		{"multicasts", s.Multicasts, 1, 64},
		{"reducepackets", s.ReducePackets, 1, 256},
		{"timesteps", s.Timesteps, 1, 64},
	} {
		if c.Value < c.Lo || c.Value > c.Hi {
			return &c
		}
	}
	return nil
}

// RangeError is Validate's failure: one knob outside its bounds. Field is
// the knob's request-layer spelling (halo, halopackets, haloburst, fanout,
// multicasts, reducepackets, timesteps), so a caller can name the offending
// input.
type RangeError struct {
	Field         string
	Value, Lo, Hi int
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("workload: %s = %d outside [%d, %d]", e.Field, e.Value, e.Lo, e.Hi)
}

// Canonical renders the spec (defaults applied) as a single deterministic
// token for experiment cache keys and trace headers.
func (s Spec) Canonical() string {
	s = s.WithDefaults()
	return fmt.Sprintf("h%d.%d.%d-m%d.%d-r%d-t%d",
		s.HaloRadius, s.HaloPackets, s.HaloBurst, s.FanoutRadius, s.Multicasts, s.ReducePackets, s.Timesteps)
}

// GroupID maps (root node, torus slice) to the multicast group id Tables
// assigns.
func GroupID(node, slice int) int { return node*topo.NumSlices + slice }

// Tables compiles the force-distribution multicast tables the spec's
// multicast phase uses: for every node, one plane-neighborhood group per
// torus slice, rooted at the node's first core endpoint. PlaneNeighborhood
// does not dedupe wrap-aliased destinations on small radices, so Tables
// does; nodes whose neighborhood collapses entirely (degenerate shapes) get
// no groups, and Run then skips the multicast phase.
func (s Spec) Tables(tm *topo.Machine) map[int]*multicast.Compiled {
	s = s.WithDefaults()
	out := make(map[int]*multicast.Compiled)
	for n := 0; n < tm.NumNodes(); n++ {
		dests := s.fanoutDests(tm, n)
		if len(dests) == 0 {
			continue
		}
		root := tm.Shape.Coord(n)
		for sl := 0; sl < topo.NumSlices; sl++ {
			out[GroupID(n, sl)] = multicast.Build(tm.Shape, root, dests, topo.AllDimOrders[0], sl).Compile(tm.Shape)
		}
	}
	return out
}

// fanoutDests is the deduped plane neighborhood of node n, excluding the
// node itself.
func (s Spec) fanoutDests(tm *topo.Machine, n int) []topo.NodeEp {
	ep := tm.Chip.CoreEndpoints()[0]
	seen := map[topo.NodeEp]bool{}
	var dests []topo.NodeEp
	for _, d := range multicast.PlaneNeighborhood(tm.Shape, tm.Shape.Coord(n), topo.DimX, topo.DimY, s.FanoutRadius, ep) {
		if d.Node == n || seen[d] {
			continue
		}
		seen[d] = true
		dests = append(dests, d)
	}
	return dests
}

// PhaseResult reports one phase of one timestep. Injected counts logical
// injection operations (packets for unicast phases, multicast roots for the
// multicast phase); Delivered counts endpoint deliveries.
type PhaseResult struct {
	Timestep   int    `json:"timestep"`
	Phase      string `json:"phase"`
	Injected   uint64 `json:"injected"`
	Delivered  uint64 `json:"delivered"`
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`
	Cycles     uint64 `json:"cycles"`
}

// Result is the end-to-end timestep-time report of a run.
type Result struct {
	Phases      []PhaseResult `json:"phases"`
	TotalCycles uint64        `json:"total_cycles"`
	TotalNS     float64       `json:"total_ns"`
}

func (r *Result) finish() {
	if len(r.Phases) == 0 {
		return
	}
	r.TotalCycles = r.Phases[len(r.Phases)-1].EndCycle - r.Phases[0].StartCycle
	r.TotalNS = machine.CyclesToNS(float64(r.TotalCycles))
}

// quiesceBudget bounds the phase-barrier drain, same rationale as the
// machine's FinishChecks drain budget.
const quiesceBudget = 1 << 16

func defaultPhaseBudget(expected uint64) uint64 { return 400_000 + 64*expected }

// Progress is a run's driver-level position, captured alongside a machine
// snapshot when a checkpoint fires. Checkpoints fire when the clock arrives
// at a multiple of the interval, which only happens inside finishPhase (its
// delivery wait or its quiescence stepping), so at capture time the current
// phase is fully injected and Progress pins exactly where the resumed run
// re-enters: finish this phase — a delivery wait that is already over returns
// at once — then continue.
type Progress struct {
	// Timestep and Phase locate the in-progress phase.
	Timestep int `json:"timestep"`
	Phase    int `json:"phase"`
	// Completed holds the results of every finished phase, in order.
	Completed []PhaseResult `json:"completed,omitempty"`
	// Before, Injected, Expected, and PhaseStart are the in-progress
	// phase's runPhase-local state.
	Before     uint64 `json:"before"`
	Injected   uint64 `json:"injected"`
	Expected   uint64 `json:"expected"`
	PhaseStart uint64 `json:"phase_start"`
}

// finishPhase runs the fabric until every expected delivery of an
// already-injected phase has arrived, then steps until quiescence — the
// phase barrier. Stepping manually keeps the observed quiescence cycle
// engine-invariant.
func finishPhase(m *machine.Machine, ts, idx int, maxPhaseCycles uint64, before, injected, expected, start uint64) (PhaseResult, error) {
	if expected > 0 {
		budget := maxPhaseCycles
		if budget == 0 {
			budget = defaultPhaseBudget(expected)
		}
		if _, err := m.RunUntilDelivered(before+expected, budget); err != nil {
			return PhaseResult{}, fmt.Errorf("workload: %s phase (timestep %d): %w", PhaseName(idx), ts, err)
		}
	}
	for i := 0; i < quiesceBudget && !m.Quiet(); i++ {
		m.Engine.Step()
	}
	if !m.Quiet() {
		return PhaseResult{}, fmt.Errorf("workload: %s phase (timestep %d) failed to quiesce within %d cycles", PhaseName(idx), ts, quiesceBudget)
	}
	end := m.Engine.Now()
	return PhaseResult{
		Timestep: ts, Phase: PhaseName(idx),
		Injected: injected, Delivered: m.Delivered() - before,
		StartCycle: start, EndCycle: end, Cycles: end - start,
	}, nil
}

// Run executes the spec's timesteps on m and reports per-phase and total
// cycle counts. The machine should be freshly built with the spec's Tables
// loaded (core.RunMDStepPoint does both); rec, when non-nil, captures every
// injection for later replay. Route choices are drawn from per-source rngs
// seeded by the machine seed and recorded pre strategy-Choose, so a run is
// fully determined by (machine config, spec) and a capture replays
// identically under the same strategy.
func Run(m *machine.Machine, spec Spec, rec *trace.Recorder, maxPhaseCycles uint64) (Result, error) {
	return runInner(m, spec, rec, maxPhaseCycles, nil, 0, nil)
}

// RunResumable is Run with checkpoint support: when every > 0 and sink is
// non-nil, an engine observer invokes sink between engine steps, whenever the
// clock reaches a multiple of every, with the driver's current Progress (the
// caller pairs it with machine.Snapshot to form a complete checkpoint). When
// from is non-nil the run resumes an interrupted one: the machine must
// already hold the restored snapshot, completed phases are taken from
// from.Completed, the per-source RNG draws of every already-injected phase
// are replayed (so later phases draw exactly what the uninterrupted run would
// have), and execution re-enters at the interrupted phase's delivery wait.
// Recording does not compose with resumption.
func RunResumable(m *machine.Machine, spec Spec, maxPhaseCycles uint64, from *Progress, every uint64, sink func(prog Progress)) (Result, error) {
	return runInner(m, spec, nil, maxPhaseCycles, from, every, sink)
}

// injection is one logical injection: what a phase generator draws, what the
// injector hands the machine, and what a trace.Event records. Unicast choices
// are pre strategy-Choose.
type injection struct {
	mcast    bool
	src, dst topo.NodeEp
	choices  route.Choices
	class    route.Class
	size     uint8 // flits (unicast)
	group    int   // multicast group id (mcast)
}

// inject is the one injector, shared by the live run and ReplayTrace: it
// performs the injection on m and returns how many deliveries it will cause.
func (in injection) inject(m *machine.Machine) (uint64, error) {
	if in.mcast {
		if m.Cfg.Multicast[in.group] == nil {
			return 0, fmt.Errorf("workload: multicast group %d not loaded (build the machine with the workload's Tables)", in.group)
		}
		return uint64(m.InjectMulticast(in.src, in.group, in.class, 0)), nil
	}
	m.Endpoint(in.src).Inject(m.MakePacket(in.src, in.dst, in.choices, in.class, 0, in.size))
	return 1, nil
}

// event renders the injection as the trace records it.
func (in injection) event(ts, phase int, cycle uint64) trace.Event {
	ev := trace.Event{Timestep: ts, Phase: phase, Cycle: cycle, SrcNode: in.src.Node, SrcEp: in.src.Ep, Class: int(in.class)}
	if in.mcast {
		ev.Kind, ev.Group = trace.KindMulticast, in.group
		return ev
	}
	ev.Kind = trace.KindUnicast
	ev.DstNode, ev.DstEp, ev.Size = in.dst.Node, in.dst.Ep, int(in.size)
	ev.Order, ev.Slice, ev.Ties = in.choices.Order.String(), int(in.choices.Slice), in.choices.Ties
	return ev
}

// injectionOf is event's inverse, for replay.
func injectionOf(e trace.Event) (injection, error) {
	in := injection{src: topo.NodeEp{Node: e.SrcNode, Ep: e.SrcEp}, class: route.Class(e.Class)}
	switch e.Kind {
	case trace.KindMulticast:
		in.mcast, in.group = true, e.Group
	case trace.KindUnicast:
		ord, ok := trace.ParseDimOrder(e.Order)
		if !ok {
			return in, fmt.Errorf("workload: replay: unknown dimension order %q", e.Order)
		}
		in.dst, in.size = topo.NodeEp{Node: e.DstNode, Ep: e.DstEp}, uint8(e.Size)
		in.choices = route.Choices{Order: ord, Slice: uint8(e.Slice), Ties: e.Ties}
	default:
		return in, fmt.Errorf("workload: replay: unknown event kind %q", e.Kind)
	}
	return in, nil
}

// generator draws a run's injections: it owns the per-source RNG streams
// (seeded by the machine seed) and the stateful halo burst model, so a run is
// fully determined by (machine config, spec).
type generator struct {
	tm    *topo.Machine
	spec  Spec // defaults applied
	cores []int
	rngs  [][]*rand.Rand // [node][core index]
	halo  *traffic.Bursty
}

func newGenerator(tm *topo.Machine, seed uint64, spec Spec) *generator {
	g := &generator{tm: tm, spec: spec, cores: tm.Chip.CoreEndpoints(),
		halo: traffic.NewBursty(traffic.NHop{N: spec.HaloRadius}, spec.HaloBurst)}
	g.rngs = make([][]*rand.Rand, tm.NumNodes())
	for n := range g.rngs {
		g.rngs[n] = make([]*rand.Rand, len(g.cores))
		for i, ep := range g.cores {
			g.rngs[n][i] = sim.NewRNG(seed, fmt.Sprintf("wl-%d-%d", n, ep))
		}
	}
	return g
}

// phase draws one phase's injections in injection order, handing each to
// yield and stopping at its first error. Every call advances the RNG streams
// exactly as far, whatever yield does with what it is handed: a resumed run
// passes a no-op to fast-forward past phases the snapshot already holds. The
// multicast phase draws nothing.
func (g *generator) phase(idx int, yield func(injection) error) error {
	switch idx {
	case PhaseHalo:
		for n := 0; n < g.tm.NumNodes(); n++ {
			for ci, epid := range g.cores {
				src, rng := topo.NodeEp{Node: n, Ep: epid}, g.rngs[n][ci]
				for k := 0; k < g.spec.HaloPackets; k++ {
					dst := g.halo.Dest(g.tm, src, rng)
					in := injection{src: src, dst: dst, choices: route.RandomChoices(rng), class: route.ClassRequest, size: packet.MaxFlits}
					if err := yield(in); err != nil {
						return err
					}
				}
			}
		}
	case PhaseMulticast:
		for n := 0; n < g.tm.NumNodes(); n++ {
			src := topo.NodeEp{Node: n, Ep: g.cores[0]}
			for k := 0; k < g.spec.Multicasts; k++ {
				in := injection{mcast: true, src: src, class: route.ClassRequest, group: GroupID(n, (n+k)%topo.NumSlices)}
				if err := yield(in); err != nil {
					return err
				}
			}
		}
	case PhaseReduce:
		rr := 0
		for n := 1; n < g.tm.NumNodes(); n++ {
			for ci, epid := range g.cores {
				src, rng := topo.NodeEp{Node: n, Ep: epid}, g.rngs[n][ci]
				for k := 0; k < g.spec.ReducePackets; k++ {
					dst := topo.NodeEp{Node: 0, Ep: g.cores[rr%len(g.cores)]}
					rr++
					in := injection{src: src, dst: dst, choices: route.RandomChoices(rng), class: route.ClassReply, size: 1}
					if err := yield(in); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

func runInner(m *machine.Machine, spec Spec, rec *trace.Recorder, maxPhaseCycles uint64, from *Progress, every uint64, sink func(prog Progress)) (Result, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if from != nil && rec != nil {
		return Result{}, fmt.Errorf("workload: cannot record a resumed run")
	}
	tm := m.Topo
	if tm.NumNodes() < 2 {
		return Result{}, fmt.Errorf("workload: shape %s too small for an MD timestep", tm.Shape)
	}
	gen := newGenerator(tm, m.Cfg.Seed, spec)
	hasMcast := m.Cfg.Multicast[GroupID(0, 0)] != nil
	if !hasMcast && len(spec.fanoutDests(tm, 0)) > 0 {
		return Result{}, fmt.Errorf("workload: machine built without the spec's multicast tables (load Spec.Tables into Config.Multicast)")
	}

	var res Result
	var cur Progress
	track := every > 0 && sink != nil
	if track {
		// The machine is the caller's and outlives the run, so the observer
		// uninstalls itself at its first deadline after the run returns.
		running := true
		defer func() { running = false }()
		next := func(now uint64) uint64 { return now + every - now%every }
		m.Engine.Observe(next(m.Engine.Now()), func(now uint64) uint64 {
			if !running {
				return 0
			}
			sink(cur)
			return next(now)
		})
	}
	resuming := from != nil
	if resuming {
		res.Phases = append(res.Phases, from.Completed...)
	}
	for ts := 0; ts < spec.Timesteps; ts++ {
		for idx := 0; idx < numPhases; idx++ {
			if idx == PhaseMulticast && !hasMcast {
				continue
			}
			var pos Progress // this phase's position, as a checkpoint records it
			if resuming {
				key, fromKey := ts*numPhases+idx, from.Timestep*numPhases+from.Phase
				if key > fromKey {
					return Result{}, fmt.Errorf("workload: checkpoint position (timestep %d, %s) was skipped", from.Timestep, PhaseName(from.Phase))
				}
				// Fully injected by checkpoint time: the machine state
				// already reflects it; only the draws need replaying.
				_ = gen.phase(idx, func(injection) error { return nil }) // the no-op cannot fail
				if key < fromKey {
					continue
				}
				// The interrupted phase: re-enter its delivery wait.
				resuming = false
				pos = *from
			} else {
				pos = Progress{Timestep: ts, Phase: idx, PhaseStart: m.Engine.Now(), Before: m.Delivered()}
				err := gen.phase(idx, func(in injection) error {
					n, err := in.inject(m)
					if err != nil {
						return err
					}
					pos.Injected++
					pos.Expected += n
					if rec != nil {
						rec.Record(in.event(ts, idx, pos.PhaseStart))
					}
					return nil
				})
				if err != nil {
					return Result{}, err
				}
			}
			if track {
				pos.Completed = append([]PhaseResult(nil), res.Phases...)
				cur = pos
			}
			pr, err := finishPhase(m, ts, idx, maxPhaseCycles, pos.Before, pos.Injected, pos.Expected, pos.PhaseStart)
			if err != nil {
				return Result{}, err
			}
			res.Phases = append(res.Phases, pr)
		}
	}
	if resuming {
		return Result{}, fmt.Errorf("workload: checkpoint position (timestep %d, %s) beyond the spec's phases", from.Timestep, PhaseName(from.Phase))
	}
	res.finish()
	return res, nil
}

// Header builds the trace header for a capture of this spec on the given
// machine config.
func (s Spec) Header(shape topo.TorusShape, seed uint64) trace.Header {
	return trace.Header{Format: trace.Format, Version: trace.Version, Shape: shape.String(), Workload: s.Canonical(), Seed: seed}
}
