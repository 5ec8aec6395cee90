// Package wire is the one varint append/read helper behind the binary
// machine snapshot: each layer that owns state (route, arbiter, fabric,
// fault, check, telemetry, packet, machine) appends its records with the
// Append functions and reads them back through a Reader. Every value has
// exactly one spelling, so input that decodes re-encodes to the same bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is a Reader's failure on input that ends early or spells a
// value non-canonically.
var ErrCorrupt = errors.New("wire: truncated or non-canonical input")

// AppendUvarint appends v in LEB128; AppendVarint zig-zags a signed value
// first; AppendUint64 appends 8 little-endian bytes (values that are
// uniformly large, or patched in place afterwards).
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func AppendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func AppendUint64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }

// AppendUvarints appends every value of vs, whose length the reader knows.
func AppendUvarints(b []byte, vs []uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends p behind its length.
func AppendBytes(b, p []byte) []byte { return append(AppendUvarint(b, uint64(len(p))), p...) }

// Reader decodes what the Append functions wrote. It never panics and never
// reads past its input: the first failure sticks, and every later read
// returns zero.
type Reader struct {
	b   []byte
	err error
}

func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes: zero once the reader has failed.
func (r *Reader) Len() int { return len(r.b) }

// Fail makes the formatted error the reader's failure unless it already has
// one; owners of a record use it for their own consistency refusals.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// Next reads n raw bytes; the result aliases the input.
func (r *Reader) Next(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.Fail("%w", ErrCorrupt)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *Reader) Byte() uint8 {
	if p := r.Next(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Fail("%w", ErrCorrupt)
	}
	return v == 1
}

func (r *Reader) Uint64() uint64 {
	if p := r.Next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Uvarint reads a minimally encoded LEB128 value.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail("%w", ErrCorrupt)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Uvarints fills dst with the values AppendUvarints wrote.
func (r *Reader) Uvarints(dst []uint64) {
	for i := range dst {
		dst[i] = r.Uvarint()
	}
}

func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads an element count and refuses one whose elements, at minBytes
// each, could not fit in the unread input, so callers may allocate and loop
// on the result.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.Fail("%w", ErrCorrupt)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string; the result aliases the input.
func (r *Reader) Bytes() []byte { return r.Next(r.Count(1)) }
