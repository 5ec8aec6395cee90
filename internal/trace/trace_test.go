package trace

import (
	"bytes"
	"strings"
	"testing"

	"anton2/internal/topo"
)

func sampleHeader() Header {
	return Header{Format: Format, Version: Version, Shape: "4x4x2", Workload: "h1.8.4-m1.2-r2-t1", Seed: 7}
}

func sampleTrace() *Trace {
	return &Trace{
		Header: sampleHeader(),
		Events: []Event{
			{Timestep: 0, Phase: 0, Cycle: 0, Kind: KindUnicast, SrcNode: 0, SrcEp: 1,
				DstNode: 3, DstEp: 4, Class: 0, Size: 1, Order: "XYZ", Slice: 1, Ties: [topo.NumDims]int8{1, -1, 1}},
			{Timestep: 0, Phase: 1, Cycle: 120, Kind: KindMulticast, SrcNode: 2, SrcEp: 1, Group: 5},
			{Timestep: 0, Phase: 2, Cycle: 300, Kind: KindUnicast, SrcNode: 31, SrcEp: 22,
				DstNode: 0, DstEp: 0, Class: 1, Size: 2, Order: "ZYX", Slice: 0, Ties: [topo.NumDims]int8{-1, -1, -1}},
		},
	}
}

// TestRoundTrip: a valid trace survives encode→decode→encode byte-identically.
func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	enc, err := tr.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Header != tr.Header || len(dec.Events) != len(tr.Events) {
		t.Fatalf("decoded trace differs: %+v", dec)
	}
	for i := range tr.Events {
		if dec.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs: got %+v want %+v", i, dec.Events[i], tr.Events[i])
		}
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", enc, enc2)
	}
}

// TestRecorder: recorded events come back in order via Trace().
func TestRecorder(t *testing.T) {
	rec := NewRecorder(sampleHeader())
	want := sampleTrace().Events
	for _, e := range want {
		rec.Record(e)
	}
	if n := len(rec.Trace().Events); n != len(want) {
		t.Fatalf("%d events recorded, want %d", n, len(want))
	}
	if _, err := rec.Trace().Encode(); err != nil {
		t.Fatalf("Encode recorded trace: %v", err)
	}
	for i, e := range rec.Trace().Events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestDecodeRejects: malformed inputs produce errors, not panics.
func TestDecodeRejects(t *testing.T) {
	valid := sampleTrace()
	enc, err := valid.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(enc), "\n"), "\n")

	cases := map[string]string{
		"empty":              "",
		"junk header":        "not json\n",
		"wrong format":       `{"format":"other","version":1,"shape":"4x4x2","seed":7}` + "\n",
		"wrong version":      `{"format":"anton2-trace","version":2,"shape":"4x4x2","seed":7}` + "\n",
		"bad shape":          `{"format":"anton2-trace","version":1,"shape":"4x4","seed":7}` + "\n",
		"non-canonical":      `{"format":"anton2-trace","version":1,"shape":"04x4x2","seed":7}` + "\n",
		"unknown field":      `{"format":"anton2-trace","version":1,"shape":"4x4x2","seed":7,"x":1}` + "\n",
		"junk event":         lines[0] + "\nnope\n",
		"blank line":         lines[0] + "\n\n" + lines[1] + "\n",
		"bad kind":           lines[0] + "\n" + strings.Replace(lines[1], `"k":"u"`, `"k":"q"`, 1) + "\n",
		"bad order":          lines[0] + "\n" + strings.Replace(lines[1], `"or":"XYZ"`, `"or":"XXY"`, 1) + "\n",
		"node out of range":  lines[0] + "\n" + strings.Replace(lines[1], `"dn":3`, `"dn":99`, 1) + "\n",
		"phase regression":   lines[0] + "\n" + lines[2] + "\n" + lines[1] + "\n",
		"cycle regression":   lines[0] + "\n" + strings.Replace(lines[2], `"c":120`, `"c":999`, 1) + "\n" + lines[3] + "\n",
		"mcast with unicast": lines[0] + "\n" + strings.Replace(lines[2], `"sz":0`, `"sz":1`, 1) + "\n",
	}
	for name, input := range cases {
		if _, err := Decode([]byte(input)); err == nil {
			t.Errorf("%s: Decode accepted %q", name, input)
		}
	}
}

// TestEncodeRejectsInvalid: Encode applies the same validation as Decode.
func TestEncodeRejectsInvalid(t *testing.T) {
	tr := sampleTrace()
	tr.Events[0].Size = 99
	if _, err := tr.Encode(); err == nil {
		t.Fatal("Encode accepted an event with a 99-flit size")
	}
}

// TestParseDimOrder: every registered order round-trips through its string
// form; unknown strings are rejected.
func TestParseDimOrder(t *testing.T) {
	for _, o := range topo.AllDimOrders {
		got, ok := ParseDimOrder(o.String())
		if !ok || got != o {
			t.Fatalf("ParseDimOrder(%q) = %v, %v", o.String(), got, ok)
		}
	}
	if _, ok := ParseDimOrder("ABC"); ok {
		t.Fatal("ParseDimOrder accepted ABC")
	}
}
