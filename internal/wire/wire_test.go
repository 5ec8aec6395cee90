package wire

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
)

// fields is one value of every Codec method's type, coded in order.
type fields struct {
	u, u8   uint64
	v       int64
	i, n    int
	b       uint8
	t       bool
	p, none []byte
	s       string
	list    []uint64
}

func (f *fields) state(c *Codec) {
	c.Uvarint(&f.u)
	c.Varint(&f.v)
	c.Uint64(&f.u8)
	c.Int(&f.i)
	c.Len(&f.n, 1)
	c.Byte(&f.b)
	c.Bool(&f.t)
	c.Bytes(&f.p)
	c.Bytes(&f.none)
	c.String(&f.s)
	List(c, &f.list, 1)
	for i := range f.list {
		c.Uvarint(&f.list[i])
	}
}

// TestRoundTrip: every method's encoding decodes back into an empty value
// through the same walk, leaving nothing unread, and the decoded value
// re-encodes to the same bytes. Decoding copies byte strings out of the
// input, and an empty one stays nil.
func TestRoundTrip(t *testing.T) {
	for _, in := range []fields{
		{u: math.MaxUint64, v: math.MinInt64, u8: 0xdeadbeefcafef00d, i: math.MaxInt, n: 1,
			b: 7, t: true, p: []byte("abc"), s: "déjà", list: []uint64{99, 1, math.MaxUint64}},
		{v: -1, list: []uint64{5}},
		{v: math.MaxInt64, list: []uint64{7}},
	} {
		enc := NewEncoder([]byte("prefix"))
		if in.state(enc); enc.Err() != nil || enc.Decoding() {
			t.Fatalf("encoding: err %v, decoding %v", enc.Err(), enc.Decoding())
		}
		b := enc.Buf()
		if !bytes.HasPrefix(b, []byte("prefix")) {
			t.Fatalf("the encoder did not append to its buffer: %q", b)
		}
		input := bytes.Clone(b[len("prefix"):])
		dec := NewDecoder(input)
		var out fields
		if out.state(dec); dec.Err() != nil || !dec.Decoding() || len(dec.Buf()) != 0 {
			t.Fatalf("decoding: err %v, %d bytes unread", dec.Err(), len(dec.Buf()))
		}
		clear(input) // what decoded must not alias it
		want := in
		if out.u != want.u || out.v != want.v || out.u8 != want.u8 || out.i != want.i || out.n != want.n ||
			out.b != want.b || out.t != want.t || string(out.p) != string(want.p) || out.none != nil ||
			out.s != want.s || !slices.Equal(out.list, want.list) {
			t.Errorf("decoded %+v, want %+v", out, want)
		}
		again := NewEncoder(nil)
		if out.state(again); !bytes.Equal(again.Buf(), b[len("prefix"):]) {
			t.Errorf("the decoded value re-encodes to %x, want %x", again.Buf(), b[len("prefix"):])
		}
	}
}

// TestEncoderFail: Fail works while encoding, and the first failure sticks;
// encoding a negative int fails.
func TestEncoderFail(t *testing.T) {
	c := NewEncoder(nil)
	neg := -1
	c.Int(&neg)
	first := c.Err()
	c.Fail("a later failure")
	if first == nil || c.Err() != first {
		t.Errorf("after encoding -1: err %v, then %v", first, c.Err())
	}
	c = NewEncoder(nil)
	c.Fail("refused %d", 3)
	if c.Err() == nil || c.Err().Error() != "refused 3" {
		t.Errorf("Fail while encoding: %v", c.Err())
	}
}

// TestDecoderRefuses: truncated input, second spellings of a value, ints
// above math.MaxInt and counts the input cannot hold all fail with
// ErrCorrupt or a range error; the first failure sticks and later fields
// decode as zero without panicking.
func TestDecoderRefuses(t *testing.T) {
	var u uint64
	var i int
	var b uint8
	var flag bool
	var p []byte
	var s string
	var list []int
	maxInt := NewEncoder(nil)
	big := uint64(math.MaxInt) + 1
	maxInt.Uvarint(&big)
	for name, tc := range map[string]struct {
		in      []byte
		decode  func(*Codec)
		corrupt bool
	}{
		"empty byte":          {nil, func(c *Codec) { c.Byte(&b) }, true},
		"short uint64":        {make([]byte, 7), func(c *Codec) { c.Uint64(&u) }, true},
		"truncated varint":    {[]byte{0x80}, func(c *Codec) { c.Uvarint(&u) }, true},
		"padded varint":       {[]byte{0x80, 0x00}, func(c *Codec) { c.Uvarint(&u) }, true},
		"padded varint (int)": {[]byte{0x81, 0x00}, func(c *Codec) { c.Varint(new(int64)) }, true},
		"overlong varint":     {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(c *Codec) { c.Uvarint(&u) }, true},
		"bool 2":              {[]byte{2}, func(c *Codec) { c.Bool(&flag) }, true},
		"bytes past the end":  {[]byte{3, 'a', 'b'}, func(c *Codec) { c.Bytes(&p) }, true},
		"string past the end": {[]byte{3, 'a', 'b'}, func(c *Codec) { c.String(&s) }, true},
		"len past the end":    {[]byte{4, 0, 0, 0, 0, 0, 0}, func(c *Codec) { c.Len(&i, 2) }, true},
		"list past the end":   {[]byte{4, 0, 0, 0, 0, 0, 0}, func(c *Codec) { List(c, &list, 2) }, true},
		"int above MaxInt":    {maxInt.Buf(), func(c *Codec) { c.Int(&i) }, false},
		"len above MaxInt":    {maxInt.Buf(), func(c *Codec) { c.Len(&i, 1) }, false},
	} {
		c := NewDecoder(tc.in)
		tc.decode(c)
		if c.Err() == nil || errors.Is(c.Err(), ErrCorrupt) != tc.corrupt {
			t.Errorf("%s: err = %v, want ErrCorrupt %v", name, c.Err(), tc.corrupt)
		}
		first := c.Err()
		c.Fail("a later failure")
		u, i, b, flag, p, s, list = 1, 1, 1, true, []byte{1}, "x", nil
		c.Uvarint(&u)
		c.Int(&i)
		c.Byte(&b)
		c.Bool(&flag)
		c.Bytes(&p)
		c.String(&s)
		List(c, &list, 1)
		if u != 0 || i != 0 || b != 0 || flag || len(p) != 0 || s != "" || len(list) != 0 || len(c.Buf()) != 0 || c.Err() != first {
			t.Errorf("%s: a failed decoder returned %d %d %d %v %q %q %v with %d bytes left and err %v",
				name, u, i, b, flag, p, s, list, len(c.Buf()), c.Err())
		}
	}
	c := NewDecoder([]byte{3, 0, 0, 0, 0, 0, 0})
	if c.Len(&i, 2); i != 3 || c.Err() != nil {
		t.Errorf("a count its elements fit behind was refused: %v", c.Err())
	}
}
