// Package wire is the one varint codec behind the binary machine snapshot
// and the checkpoint record. Each layer that owns state (route, arbiter,
// fabric, fault, check, telemetry, packet, machine, ckpt) lists its fields
// once, in one State method that takes a *Codec: an encoding codec appends
// every field to a buffer, a decoding one reads each back into the same
// field. Every value has exactly one spelling, so input that decodes
// re-encodes to the same bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is a decoding codec's failure on input that ends early or
// spells a value non-canonically.
var ErrCorrupt = errors.New("wire: truncated or non-canonical input")

// Codec encodes fields into a buffer or decodes them back from one. Its
// methods take a pointer to the field: encoding appends the field's value,
// decoding overwrites it with the next value of the input. A decoding codec
// never panics and never reads past its input: the first failure sticks,
// and every later field decodes as zero. Fail works in both directions, so
// a State method writes each of its checks once, next to the field it
// guards.
type Codec struct {
	b   []byte // encoding: the record so far; decoding: the unread input
	dec bool
	err error
}

// NewEncoder returns a codec that appends to b.
func NewEncoder(b []byte) *Codec { return &Codec{b: b} }

// NewDecoder returns a codec that reads b.
func NewDecoder(b []byte) *Codec { return &Codec{b: b, dec: true} }

// Decoding reports the codec's direction, for the few places the two differ.
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first failure, or nil.
func (c *Codec) Err() error { return c.err }

// Buf returns what an encoding codec has appended to its buffer (aliasing
// it), or what a decoding one has not read yet: nothing once it has failed.
func (c *Codec) Buf() []byte { return c.b }

// Fail makes the formatted error the codec's failure unless it already has
// one; owners of a record use it for their own consistency refusals.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	if c.dec {
		c.b = nil
	}
}

func (c *Codec) corrupt() { c.Fail("%w", ErrCorrupt) }

// next consumes n bytes of a decoding codec's input: zeros when they are
// not there.
func (c *Codec) next(n int) []byte {
	if n > len(c.b) {
		c.corrupt()
		return make([]byte, n)
	}
	p := c.b[:n:n]
	c.b = c.b[n:]
	return p
}

// Uvarint codes v in minimal LEB128. Encoding a one-byte value is the
// inlined path.
func (c *Codec) Uvarint(v *uint64) {
	if c.dec || *v >= 0x80 {
		c.uvarint(v)
		return
	}
	c.b = append(c.b, uint8(*v))
}

func (c *Codec) uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.corrupt()
		x, n = 0, 0
	}
	*v, c.b = x, c.b[n:]
}

// Varint codes v zig-zagged, as a Uvarint.
func (c *Codec) Varint(v *int64) {
	u := uint64(*v<<1) ^ uint64(*v>>63)
	c.Uvarint(&u)
	*v = int64(u>>1) ^ -int64(u&1)
}

// Int codes a non-negative int as a Uvarint. It refuses a negative one when
// encoding and, decoding, a value above math.MaxInt. Encoding a one-byte
// value is the inlined path.
func (c *Codec) Int(v *int) {
	if c.dec || uint(*v) >= 0x80 {
		c.int(v)
		return
	}
	c.b = append(c.b, uint8(*v))
}

func (c *Codec) int(v *int) {
	u := uint64(*v)
	if c.uvarint(&u); u > math.MaxInt {
		c.Fail("wire: int %d out of range", u)
		u = 0
	}
	*v = int(u)
}

// Len codes an element count as an Int. Decoding, it also refuses a count
// whose elements, at minBytes (>= 1) each, could not fit in the unread input,
// so callers may allocate and loop on the result.
func (c *Codec) Len(n *int, minBytes int) {
	if c.Int(n); c.dec && *n > len(c.b)/minBytes {
		c.corrupt()
		*n = 0
	}
}

// Uint64 codes v as 8 little-endian bytes: values that are uniformly large,
// or patched in place afterwards.
func (c *Codec) Uint64(v *uint64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
		return
	}
	*v = binary.LittleEndian.Uint64(c.next(8))
}

// Byte codes v as itself. Encoding is the inlined path.
func (c *Codec) Byte(v *uint8) {
	if c.dec {
		c.readByte(v)
		return
	}
	c.b = append(c.b, *v)
}

// readByte stays out of line so that Byte, inlined, costs an encoder one
// append.
//
//go:noinline
func (c *Codec) readByte(v *uint8) { *v = c.next(1)[0] }

// Bool codes v as one byte, 0 or 1.
func (c *Codec) Bool(v *bool) {
	var x uint8
	if *v {
		x = 1
	}
	if c.Byte(&x); x > 1 {
		c.corrupt()
	}
	*v = x == 1
}

// Bytes codes p behind its length. Decoding copies into p's own storage, so
// an empty value leaves a nil p nil.
func (c *Codec) Bytes(p *[]byte) {
	n := len(*p)
	if c.Len(&n, 1); !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	*p = append((*p)[:0], c.next(n)...)
}

// String codes s behind its length.
func (c *Codec) String(s *string) {
	n := len(*s)
	if c.Len(&n, 1); !c.dec {
		c.b = append(c.b, *s...)
		return
	}
	*s = string(c.next(n))
}

// List codes the length of a slice with Len. Decoding, it then extends *s
// with zero elements to that length, for the caller to fill element by
// element; encoding leaves *s as it is.
func List[T any](c *Codec, s *[]T, minBytes int) {
	n := len(*s)
	if c.Len(&n, minBytes); n > len(*s) {
		*s = append(*s, make([]T, n-len(*s))...)
	}
}
