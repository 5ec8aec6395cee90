package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"anton2/internal/arbiter"
	"anton2/internal/core"
	"anton2/internal/exp"
	"anton2/internal/fault"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
	"anton2/internal/workload"
)

// Request is one experiment submission: a family (the same families
// anton2bench runs) plus its sweep axes. Every field that influences results
// is folded into the canonical spec, so two requests with the same canonical
// string are the same experiment — they collapse to one run in flight and
// share one content-addressed artifact forever.
type Request struct {
	// Family selects the experiment by any spelling the core family registry
	// knows: throughput, blend, latency, energy, faultsweep, routecompare,
	// mdstep, or an anton2bench name such as fig9.
	Family string `json:"family"`
	// Shape is the torus shape, e.g. "4x4x2" (ignored by energy, which
	// always measures the single-node loop machine like Figure 13).
	Shape string `json:"shape,omitempty"`
	// Pattern is the traffic pattern for throughput and faultsweep
	// (default "uniform"): uniform, 1-hop, 2-hop, tornado,
	// reverse-tornado, bit-complement, nearest-neighbor.
	Pattern string `json:"pattern,omitempty"`
	// Arbiter selects throughput arbitration: "rr" (default) or "iw".
	Arbiter string `json:"arbiter,omitempty"`
	// Batches are the throughput sweep points (packets per core).
	Batches []int `json:"batches,omitempty"`
	// Batch is the per-point batch size for blend and faultsweep.
	Batch int `json:"batch,omitempty"`
	// Fractions are the blend sweep points (tornado fraction, 0..1).
	Fractions []float64 `json:"fractions,omitempty"`
	// Weights is the blend weight mode: none, forward, reverse, both.
	Weights string `json:"weights,omitempty"`
	// Rates are the faultsweep corruption rates (0..1).
	Rates []float64 `json:"rates,omitempty"`
	// Fault is the faultsweep base fault spec held fixed across points,
	// e.g. "stall=0.001,faillinks=1" (same syntax as anton2bench -fault).
	Fault string `json:"fault,omitempty"`
	// Payload is the energy payload kind: zeros, ones, random.
	Payload string `json:"payload,omitempty"`
	// Flits is the energy stream length (default 400).
	Flits int `json:"flits,omitempty"`
	// Strategies are the routecompare routing strategies to score by
	// registered name (default: every registered strategy).
	Strategies []string `json:"strategies,omitempty"`
	// FailLinks are the routecompare permanent-outage sweep points
	// (default [0], the healthy machine).
	FailLinks []int `json:"faillinks,omitempty"`
	// The mdstep workload knobs; zero values take the workload defaults
	// (radius-1 halo of 8 packets in bursts of 4, 2 multicasts at fanout
	// radius 1, 2 reduction packets per node, 1 timestep). Strategies
	// selects the routing strategies to sweep, as in routecompare.
	Halo          int `json:"halo,omitempty"`
	HaloPackets   int `json:"halopackets,omitempty"`
	HaloBurst     int `json:"haloburst,omitempty"`
	Fanout        int `json:"fanout,omitempty"`
	Multicasts    int `json:"multicasts,omitempty"`
	ReducePackets int `json:"reducepackets,omitempty"`
	Timesteps     int `json:"timesteps,omitempty"`

	// parsed is set by ParseRequest only: a request built as a literal may
	// still be edited, so it is compiled afresh on every use.
	parsed *compiled
}

// RequestError is a validation failure: the submission never reached the
// queue. It maps to HTTP 400 exactly where the CLI harness exits 2.
type RequestError struct {
	Field string `json:"field,omitempty"`
	Msg   string `json:"msg"`
}

func (e *RequestError) Error() string {
	if e.Field == "" {
		return "serve: invalid request: " + e.Msg
	}
	return fmt.Sprintf("serve: invalid request field %q: %s", e.Field, e.Msg)
}

func badField(field, format string, args ...any) error {
	return &RequestError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// maxSweepPoints bounds a single request's fan-out so one submission cannot
// occupy the worker pool unboundedly.
const maxSweepPoints = 64

// maxRequestBytes bounds the decoded submission body.
const maxRequestBytes = 1 << 16

// ParseRequest decodes and validates one submission body. The returned
// request carries its compiled form, so the ID, Canonical, Jobs and Submit
// calls that follow do not validate it again; treat it as immutable.
func ParseRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	req := &Request{}
	if err := dec.Decode(req); err != nil {
		return nil, &RequestError{Msg: "malformed JSON: " + err.Error()}
	}
	c, err := req.compile()
	if err != nil {
		return nil, err
	}
	req.parsed = c
	return req, nil
}

// compiled is a validated request lowered to the pieces the runner needs:
// the family, its checked axes, and the sweep's identity and size.
type compiled struct {
	fam       *core.Family
	axes      core.Axes
	canonical string
	id        string
	points    int
}

// Validate checks the request without building jobs.
func (q *Request) Validate() error {
	_, err := q.compile()
	return err
}

// Canonical returns the canonical sweep encoding, e.g.
// "serve-throughput{shape=4x2x2 pattern=uniform arb=rr batches=32|64}".
func (q *Request) Canonical() (string, error) {
	c, err := q.compile()
	if err != nil {
		return "", err
	}
	return c.canonical, nil
}

// ID returns the content address of the request's artifact: the hex spec
// hash of the canonical sweep encoding.
func (q *Request) ID() (string, error) {
	c, err := q.compile()
	if err != nil {
		return "", err
	}
	return c.id, nil
}

// Jobs builds the sweep's jobs, for a caller that runs them one at a time;
// tel supplies per-point telemetry options (nil options disable collection
// for that point). The parameter survives only because benchmark/ compiles
// against it, always returning nil; the server itself attaches no collector.
func (q *Request) Jobs(tel func() *telemetry.Options) ([]exp.Job, error) {
	c, err := q.compile()
	if err != nil {
		return nil, err
	}
	return c.fam.Jobs(c.axes, func(mc *machine.Config) {
		mc.Telemetry = tel()
		mc.Shards = core.ResolveShards(*mc, 1)
	}), nil
}

// compile looks the family up in the core registry and hands it the typed
// axes: the family's own Check supplies defaults and range checks, so the
// server can never validate differently from anton2bench.
func (q *Request) compile() (*compiled, error) {
	if q.parsed != nil {
		return q.parsed, nil
	}
	fam, ok := core.FamilyByName(q.Family)
	if !ok {
		return nil, badField("family", "unknown or missing family %q (registered: %s)", q.Family, strings.Join(core.FamilyNames(), ", "))
	}
	axes, err := q.axes()
	if err == nil {
		err = fam.Check(&axes)
	}
	var axisErr *core.AxisError
	if errors.As(err, &axisErr) {
		return nil, &RequestError{Field: axisErr.Axis, Msg: axisErr.Msg}
	}
	if err != nil {
		return nil, err
	}
	points, axis := fam.Points(axes)
	if points > maxSweepPoints {
		return nil, badField(axis, "%d points exceed the %d-point sweep bound", points, maxSweepPoints)
	}
	spec := fam.Spec(axes)
	return &compiled{
		fam:       fam,
		axes:      axes,
		canonical: spec.Canonical(),
		id:        fmt.Sprintf("%016x", spec.Hash()),
		points:    points,
	}, nil
}

// axes converts the request's strings to typed sweep axes. Empty fields stay
// zero for the family to default; a name that resolves to nothing is rejected
// here, with the field named.
func (q *Request) axes() (core.Axes, error) {
	a := core.Axes{
		Batches: q.Batches, Batch: q.Batch, Fractions: q.Fractions, Rates: q.Rates,
		Flits: q.Flits, FailLinks: q.FailLinks,
		Workload: workload.Spec{
			HaloRadius: q.Halo, HaloPackets: q.HaloPackets, HaloBurst: q.HaloBurst,
			FanoutRadius: q.Fanout, Multicasts: q.Multicasts,
			ReducePackets: q.ReducePackets, Timesteps: q.Timesteps,
		},
	}
	var err error
	var ok bool
	if q.Shape != "" {
		if a.Shape, err = topo.ParseShape(q.Shape); err != nil {
			return a, badField("shape", "%v", err)
		}
	}
	if q.Pattern != "" {
		if a.Pattern, ok = traffic.ByName(q.Pattern); !ok {
			return a, badField("pattern", "unknown pattern %q (%s)", q.Pattern, strings.Join(traffic.Names(), ", "))
		}
	}
	if q.Arbiter != "" {
		if a.Arbiter, ok = arbiter.KindByName(q.Arbiter); !ok {
			return a, badField("arbiter", "unknown arbiter %q (rr or iw)", q.Arbiter)
		}
	}
	if a.Weights, ok = byName(q.Weights, core.WeightsNone, core.WeightsForward, core.WeightsReverse, core.WeightsBoth); !ok {
		return a, badField("weights", "unknown weight mode %q (none, forward, reverse, both)", q.Weights)
	}
	if a.Payload, ok = byName(q.Payload, core.PayloadZeros, core.PayloadOnes, core.PayloadRandom); !ok {
		return a, badField("payload", "unknown payload %q (zeros, ones, random)", q.Payload)
	}
	if q.Fault != "" {
		if a.Fault, err = fault.ParseSpec(q.Fault); err != nil {
			return a, badField("fault", "%v", err)
		}
	}
	for _, n := range q.Strategies {
		s, ok := route.StrategyByName(n)
		if !ok {
			return a, badField("strategies", "unknown strategy %q (registered: %s)", n, strings.Join(route.StrategyNames(), "|"))
		}
		a.Strategies = append(a.Strategies, s)
	}
	return a, nil
}

// byName resolves an enumeration value by its lower-cased String; the empty
// name is the first (default) value.
func byName[T fmt.Stringer](name string, values ...T) (T, bool) {
	for _, v := range values {
		if name == "" || name == strings.ToLower(v.String()) {
			return v, true
		}
	}
	return values[0], false
}

// PatternNames lists every pattern name a request accepts (shared with the
// load generator, which sweeps the full set).
func PatternNames() []string { return traffic.Names() }
