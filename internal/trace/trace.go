// Package trace defines the recorded-traffic format: a versioned,
// deterministic JSON-lines encoding of every logical injection in a run.
// The first line is a Header identifying the format version, the machine
// shape, and the workload that produced the capture; every following line is
// one Event in injection order. The workload layer records events with their
// phase context through a Recorder and workload.ReplayTrace consumes them —
// the simulator captures and replays its own traffic.
//
// Format v1 guarantees:
//   - Encoding is deterministic: the same Trace always yields the same bytes.
//   - Events are ordered: (timestep, phase) is lexicographically nondecreasing
//     and the injection cycle is nondecreasing.
//   - Decode validates structure and ranges against the header's shape and
//     never panics on arbitrary input; Encode∘Decode is idempotent.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"anton2/internal/packet"
	"anton2/internal/topo"
)

// Format and Version identify trace files produced by this package. Version
// bumps whenever the line schema changes incompatibly.
const (
	Format  = "anton2-trace"
	Version = 1
)

// Event kinds.
const (
	KindUnicast   = "u"
	KindMulticast = "m"
)

// Header is the first line of a trace file.
type Header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Shape is the torus shape the capture ran on ("8x4x2"); replay
	// requires an identical shape.
	Shape string `json:"shape"`
	// Workload optionally names the workload spec that generated the
	// traffic (workload.Spec.Canonical()).
	Workload string `json:"workload,omitempty"`
	// Seed is the machine seed of the recorded run.
	Seed uint64 `json:"seed"`
}

// Event is one logical injection. Unicast events carry the full pre-route
// choice set (dimension order, slice, tie-breaks) so replay reconstructs the
// exact same route.State; multicast events carry only the group id, since the
// compiled table determines the tree deterministically.
type Event struct {
	Timestep int    `json:"t"`
	Phase    int    `json:"p"`
	Cycle    uint64 `json:"c"`
	Kind     string `json:"k"`
	SrcNode  int    `json:"sn"`
	SrcEp    int    `json:"se"`
	// Unicast fields (zero for multicast events).
	DstNode int                `json:"dn"`
	DstEp   int                `json:"de"`
	Class   int                `json:"cl"`
	Size    int                `json:"sz"`
	Order   string             `json:"or,omitempty"`
	Slice   int                `json:"sl"`
	Ties    [topo.NumDims]int8 `json:"ti"`
	// Multicast group id (KindMulticast only).
	Group int `json:"g"`
}

// Trace is a decoded capture: header plus events in injection order.
type Trace struct {
	Header Header
	Events []Event
}

// ParseDimOrder resolves a dimension-order string like "XYZ" to its
// topo.DimOrder.
func ParseDimOrder(s string) (topo.DimOrder, bool) {
	for _, o := range topo.AllDimOrders {
		if o.String() == s {
			return o, true
		}
	}
	return topo.DimOrder{}, false
}

func (h Header) validate() (topo.TorusShape, error) {
	if h.Format != Format {
		return topo.TorusShape{}, fmt.Errorf("trace: format %q, want %q", h.Format, Format)
	}
	if h.Version != Version {
		return topo.TorusShape{}, fmt.Errorf("trace: version %d, want %d", h.Version, Version)
	}
	shape, err := topo.ParseShape(h.Shape) // strict: canonical spellings only
	if err != nil {
		return topo.TorusShape{}, fmt.Errorf("trace: %w", err)
	}
	return shape, nil
}

func (e *Event) validate(shape topo.TorusShape) error {
	nodes := shape.NumNodes()
	if e.Timestep < 0 || e.Phase < 0 {
		return fmt.Errorf("negative timestep/phase (%d, %d)", e.Timestep, e.Phase)
	}
	if e.SrcNode < 0 || e.SrcNode >= nodes || e.SrcEp < 0 || e.SrcEp >= topo.NumEndpoints {
		return fmt.Errorf("source n%d.E%d outside %s", e.SrcNode, e.SrcEp, shape)
	}
	switch e.Kind {
	case KindUnicast:
		if e.DstNode < 0 || e.DstNode >= nodes || e.DstEp < 0 || e.DstEp >= topo.NumEndpoints {
			return fmt.Errorf("destination n%d.E%d outside %s", e.DstNode, e.DstEp, shape)
		}
		if e.Class != 0 && e.Class != 1 {
			return fmt.Errorf("class %d, want request (0) or reply (1)", e.Class)
		}
		if e.Size < 1 || e.Size > packet.MaxFlits {
			return fmt.Errorf("size %d flits outside [1, %d]", e.Size, packet.MaxFlits)
		}
		if _, ok := ParseDimOrder(e.Order); !ok {
			return fmt.Errorf("unknown dimension order %q", e.Order)
		}
		if e.Slice < 0 || e.Slice >= topo.NumSlices {
			return fmt.Errorf("slice %d outside [0, %d)", e.Slice, topo.NumSlices)
		}
		for d, tie := range e.Ties {
			if tie < -1 || tie > 1 {
				return fmt.Errorf("tie-break %d along %s outside [-1, 1]", tie, topo.Dim(d))
			}
		}
		if e.Group != 0 {
			return fmt.Errorf("unicast event carries group %d", e.Group)
		}
	case KindMulticast:
		if e.Class != 0 && e.Class != 1 {
			return fmt.Errorf("class %d, want request (0) or reply (1)", e.Class)
		}
		if e.Group < 0 {
			return fmt.Errorf("negative multicast group %d", e.Group)
		}
		if e.DstNode != 0 || e.DstEp != 0 || e.Size != 0 || e.Order != "" || e.Slice != 0 || e.Ties != ([topo.NumDims]int8{}) {
			return errors.New("multicast event carries unicast fields")
		}
	default:
		return fmt.Errorf("unknown event kind %q", e.Kind)
	}
	return nil
}

func (t *Trace) validate() error {
	shape, err := t.Header.validate()
	if err != nil {
		return err
	}
	prev := Event{}
	for i := range t.Events {
		e := &t.Events[i]
		if err := e.validate(shape); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		if i > 0 {
			if e.Timestep < prev.Timestep || (e.Timestep == prev.Timestep && e.Phase < prev.Phase) {
				return fmt.Errorf("trace: event %d: phase order regresses (t%d p%d after t%d p%d)",
					i, e.Timestep, e.Phase, prev.Timestep, prev.Phase)
			}
			if e.Cycle < prev.Cycle {
				return fmt.Errorf("trace: event %d: cycle %d before %d", i, e.Cycle, prev.Cycle)
			}
		}
		prev = *e
	}
	return nil
}

// Encode serializes the trace to its canonical JSON-lines form. Encoding a
// valid trace is deterministic: the same Trace always yields the same bytes.
func (t *Trace) Encode() ([]byte, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(t.Header); err != nil {
		return nil, err
	}
	for i := range t.Events {
		if err := enc.Encode(&t.Events[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodeLine strictly unmarshals one JSON-lines record: unknown fields and
// trailing data are errors.
func decodeLine(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after record")
	}
	return nil
}

// Decode parses and validates a trace file. It never panics on arbitrary
// input, and decoded traces re-encode to a canonical form: for any input x
// accepted by Decode, Encode(Decode(x)) is a fixed point of the round trip.
func Decode(data []byte) (*Trace, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, errors.New("trace: empty input")
	}
	t := &Trace{}
	if err := decodeLine(sc.Bytes(), &t.Header); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	for sc.Scan() {
		var e Event
		if err := decodeLine(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", len(t.Events), err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Recorder accumulates events during a run. It is not synchronized: record
// from the coordinating goroutine only (injection happens between engine
// steps, so this is the natural discipline).
type Recorder struct {
	tr Trace
}

// NewRecorder starts a capture with the given header.
func NewRecorder(h Header) *Recorder {
	return &Recorder{tr: Trace{Header: h}}
}

// Record appends one event.
func (r *Recorder) Record(ev Event) { r.tr.Events = append(r.tr.Events, ev) }

// Trace returns the capture accumulated so far. The returned value shares
// storage with the recorder.
func (r *Recorder) Trace() *Trace { return &r.tr }
