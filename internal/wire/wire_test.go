package wire

import (
	"errors"
	"math"
	"testing"
)

// TestRoundTrip: every Append function reads back through its Reader method,
// in order, leaving nothing unread.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, -1)
	b = AppendVarint(b, math.MinInt64)
	b = AppendUint64(b, 0xdeadbeefcafef00d)
	b = AppendBool(b, true)
	b = AppendBytes(b, []byte("abc"))
	b = AppendBytes(b, nil)
	b = append(b, 7)

	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d, want 0", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want MaxUint64", v)
	}
	if v := r.Varint(); v != -1 {
		t.Errorf("Varint = %d, want -1", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d, want MinInt64", v)
	}
	if v := r.Uint64(); v != 0xdeadbeefcafef00d {
		t.Errorf("Uint64 = %#x", v)
	}
	if !r.Bool() {
		t.Error("Bool = false, want true")
	}
	if p := r.Bytes(); string(p) != "abc" {
		t.Errorf("Bytes = %q, want abc", p)
	}
	if p := r.Bytes(); len(p) != 0 {
		t.Errorf("Bytes = %q, want empty", p)
	}
	if v := r.Byte(); v != 7 {
		t.Errorf("Byte = %d, want 7", v)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Errorf("after the last value: err %v, %d bytes unread", r.Err(), r.Len())
	}
}

// TestReaderRefuses: truncated input, second spellings of a value and counts
// the input cannot hold all fail with ErrCorrupt; the first failure sticks
// and later reads return zero without panicking.
func TestReaderRefuses(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(*Reader)
	}{
		"empty byte":         {nil, func(r *Reader) { r.Byte() }},
		"short uint64":       {make([]byte, 7), func(r *Reader) { r.Uint64() }},
		"truncated varint":   {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"padded varint":      {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"overlong varint":    {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }},
		"bool 2":             {[]byte{2}, func(r *Reader) { r.Bool() }},
		"bytes past the end": {[]byte{3, 'a', 'b'}, func(r *Reader) { r.Bytes() }},
		"count past the end": {[]byte{4, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		"huge count":         {AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Count(1) }},
		"negative next":      {[]byte{1}, func(r *Reader) { r.Next(-1) }},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, r.Err())
		}
		first := r.Err()
		r.Fail("a later failure")
		if v := r.Uvarint() + uint64(r.Byte()) + r.Uint64() + uint64(len(r.Bytes())); v != 0 || r.Len() != 0 || r.Err() != first {
			t.Errorf("%s: a failed reader returned %d with %d bytes left and err %v", name, v, r.Len(), r.Err())
		}
	}
	if r := NewReader([]byte{3, 0, 0, 0, 0, 0, 0}); r.Count(2) != 3 || r.Err() != nil {
		t.Errorf("a count its elements fit behind was refused: %v", r.Err())
	}
}
