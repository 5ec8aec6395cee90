package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"anton2/internal/arbiter"
	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/workload"
)

// This file is the experiment-family registry: the one place a simulated
// sweep is defined. A family states its names, its typed axes with defaults
// and range checks, its sweep-level cache key, its grid expansion into
// exp.Jobs, its paper-figure panels, and its table renderer; anton2bench, the
// experiment server and the differential test suites all iterate the
// registry instead of spelling the families out again. Adding a family is one
// new file in this package that calls register from init (plus a panel in
// the mode lattice's latticePanelAxes, which TestLatticeCovers insists on).

// Axes are the typed sweep axes of one request or one figure panel. Every
// family reads the subset it documents and ignores the rest; Family.Check
// fills the defaults of, and range-checks, exactly that subset.
type Axes struct {
	// Shape is the torus shape (every family but energy, which always
	// measures the single-node loop machine).
	Shape topo.TorusShape
	// Pattern is the measured traffic of throughput, faultsweep and
	// routecompare (nil = uniform).
	Pattern traffic.Pattern
	// Arbiter is the throughput arbitration.
	Arbiter arbiter.Kind
	// Batches is the throughput sweep axis, packets per core.
	Batches []int
	// Batch is the per-point batch of blend, faultsweep and routecompare.
	Batch int
	// Fractions is the blend sweep axis, tornado fraction in [0, 1].
	Fractions []float64
	// Weights is the blend weight programming.
	Weights WeightMode
	// Rates is the faultsweep sweep axis, corruption rate in [0, 1].
	Rates []float64
	// Fault is the faultsweep base spec held fixed across Rates.
	Fault fault.Spec
	// Payload is the energy payload pattern.
	Payload PayloadKind
	// Flits is the energy stream length (0 = 400).
	Flits int
	// Strategies is the routecompare and mdstep sweep axis (empty = every
	// registered strategy, in name order).
	Strategies []route.Strategy
	// FailLinks is the routecompare permanent-outage sweep axis (empty =
	// [0], the healthy machine).
	FailLinks []int
	// Workload holds the mdstep timestep knobs (zero fields = defaults).
	Workload workload.Spec
}

// AxisError is a rejected axis value. Axis is the axis's request-layer
// spelling (shape, batches, faillinks, halopackets, ...), so a command line
// or an HTTP 400 can name the offending input.
type AxisError struct {
	Axis string
	Msg  string
}

func (e *AxisError) Error() string { return fmt.Sprintf("core: axis %q: %s", e.Axis, e.Msg) }

func badAxis(axis, format string, args ...any) error {
	return &AxisError{Axis: axis, Msg: fmt.Sprintf(format, args...)}
}

// Family is one experiment family. The function fields other than Check take
// Axes that Check has accepted.
type Family struct {
	// Name is the family's request spelling ("throughput"); Figure its
	// anton2bench experiment and artifact name ("fig9"); Aliases any further
	// spellings anton2bench answers to.
	Name    string
	Figure  string
	Aliases []string
	// Title and Paper head the printed table: what the figure shows and
	// what the paper reports.
	Title, Paper string
	// Full and Quick are the paper figure's panels (one printed row or
	// table each) at full and -quick scale.
	Full, Quick []Axes
	// Check fills defaults into a and range-checks the axes the family
	// reads, returning an *AxisError that names the offending one.
	Check func(a *Axes) error
	// Points is the grid size Jobs expands a to, and the axis to blame when
	// a caller finds that too large.
	Points func(a Axes) (n int, axis string)
	// Spec is the sweep-level canonical spec: the cache key of the whole
	// sweep, as opposed to the per-point specs its jobs carry. Its "serve-"
	// name prefix is historical and frozen — stored artifacts are addressed
	// by its hash.
	Spec func(a Axes) *exp.Spec
	// Jobs expands the grid. Every machine config passes through mutate
	// last, so a caller can set scheduling and observability fields
	// (Check, Engine, Shards, Telemetry, Progress) that never enter a cache
	// key.
	Jobs func(a Axes, mutate func(*machine.Config)) []exp.Job
	// Render prints the measured table for the panels' results, which are
	// concatenated in panel order.
	Render func(w io.Writer, panels []Axes, rs []exp.Result)
}

// families is the registry, kept in Name order.
var families []*Family

// register adds a family at init time; a spelling collision is a programming
// error.
func register(f *Family) {
	for _, name := range append([]string{f.Name, f.Figure}, f.Aliases...) {
		if _, dup := FamilyByName(name); dup {
			panic(fmt.Sprintf("core: duplicate family spelling %q", name))
		}
	}
	families = append(families, f)
	sort.Slice(families, func(i, j int) bool { return families[i].Name < families[j].Name })
}

// Families returns the registered families in Name order.
func Families() []*Family { return families }

// FamilyNames returns the registered family names, sorted.
func FamilyNames() []string {
	out := make([]string, len(families))
	for i, f := range families {
		out[i] = f.Name
	}
	return out
}

// FamilyByName resolves any spelling of a family: its Name, its Figure, or
// an alias.
func FamilyByName(name string) (*Family, bool) {
	for _, f := range families {
		if name == f.Name || name == f.Figure {
			return f, true
		}
		for _, a := range f.Aliases {
			if name == a {
				return f, true
			}
		}
	}
	return nil, false
}

// The checks below are shared by the families' Check functions.

func checkShape(a *Axes) error {
	if a.Shape == (topo.TorusShape{}) {
		return badAxis("shape", `missing (e.g. "4x4x2")`)
	}
	if err := a.Shape.Validate(); err != nil {
		return badAxis("shape", "%v", err)
	}
	if a.Shape.NumNodes() < 2 {
		return badAxis("shape", "%v is a single node; the family measures traffic between nodes", a.Shape)
	}
	return nil
}

func checkPattern(a *Axes) {
	if a.Pattern == nil {
		a.Pattern = traffic.Uniform{}
	}
}

func checkBatch(a *Axes) error {
	if a.Batch <= 0 {
		return badAxis("batch", "must be positive, got %d", a.Batch)
	}
	return nil
}

// checkUnitList accepts a non-empty list of values in [0, 1].
func checkUnitList(axis string, xs []float64, example string) error {
	if len(xs) == 0 {
		return badAxis(axis, "missing (e.g. %s)", example)
	}
	for _, x := range xs {
		if !(x >= 0 && x <= 1) {
			return badAxis(axis, "must be in [0, 1], got %g", x)
		}
	}
	return nil
}

func checkStrategies(a *Axes) {
	if len(a.Strategies) == 0 {
		a.Strategies = route.Strategies()
	}
}

// joinBar renders a sweep axis inside a canonical spec: "32|64".
func joinBar[T any](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, "|")
}

func strategyNames(strats []route.Strategy) []string {
	names := make([]string, len(strats))
	for i, s := range strats {
		names[i] = s.Name()
	}
	return names
}
