// Package wire holds the primitives of the repository's hand-written binary
// persistence formats (the native-code codec of internal/nisa and the disk
// cache payloads of pkg/splitvm): varints, length-prefixed strings and a
// bounds-checked reader over untrusted bytes.
//
// Writing needs nothing beyond encoding/binary's append functions (plus
// AppendString here); the Reader is what the formats share. It is canonical and
// allocation-safe by construction: it accepts exactly one encoding of every
// value (a padded varint is an error, so whatever decodes re-encodes to the
// same bytes), never reads past the input, and bounds every element count by
// the bytes that remain, so a hostile length cannot size an allocation
// larger than a constant times the input.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// Errors reported by a Reader. Decoders of persisted data treat all of them
// alike — the entry is a miss — so they carry no position.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrVarint    = errors.New("wire: overlong or padded varint")
	ErrRange     = errors.New("wire: value out of range")
	ErrTag       = errors.New("wire: unexpected format tag")
)

// AppendString appends s as a uvarint length followed by its bytes, the form
// Reader.String reads.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Reader consumes a byte slice front to back. The first failure sticks: every
// later read returns the zero value, so a decoder may read a whole record and
// check Err once (loops over a decoded count should still stop on Err).
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a reader over data. The reader only ever slices data; the
// strings it returns are copies, Rest is not.
func NewReader(data []byte) Reader { return Reader{buf: data} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's failure unless one is already recorded,
// and stops further reads. Decoders use it for their own validation errors so
// one Err check covers framing and content.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Rest returns the unread bytes without consuming them.
func (r *Reader) Rest() []byte { return r.buf }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Take reads n raw bytes. The result aliases the input.
func (r *Reader) Take(n int) []byte {
	if n < 0 || len(r.buf) < n {
		r.Fail(ErrTruncated)
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Uvarint reads an unsigned varint in its shortest encoding.
func (r *Reader) Uvarint() uint64 {
	if len(r.buf) > 0 && r.buf[0] < 0x80 {
		v := uint64(r.buf[0])
		r.buf = r.buf[1:]
		return v
	}
	v, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.Fail(ErrTruncated)
		return 0
	case n < 0 || r.buf[n-1] == 0:
		// Overflows 64 bits, or ends in a zero continuation group: the same
		// value has a shorter encoding.
		r.Fail(ErrVarint)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag varint in its shortest encoding.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a zig-zag varint that must fit the platform's int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(ErrRange)
		return 0
	}
	return int(v)
}

// Uint64 reads eight little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if len(r.buf) < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Count reads an element count for a sequence whose every element occupies
// at least minBytes (>= 1) of input, and rejects counts the remaining input
// cannot hold — the caller may allocate count elements up front.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if v > uint64(len(r.buf)/minBytes) {
		r.Fail(ErrTruncated)
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string (copied out of the input).
func (r *Reader) String() string { return string(r.Take(r.Count(1))) }

// Expect consumes the literal tag that opens a payload.
func (r *Reader) Expect(tag string) {
	if len(r.buf) < len(tag) || string(r.buf[:len(tag)]) != tag {
		r.Fail(ErrTag)
		return
	}
	r.buf = r.buf[len(tag):]
}

// Uint32 reads an unsigned varint that must fit 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail(ErrRange)
		return 0
	}
	return uint32(v)
}
