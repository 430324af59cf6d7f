// Explicit binary message codec for the per-session wire formats.
//
// Every message kind that crosses a Conn (protocol envelopes, server
// hellos, group frames) shares one layout:
//
//	[CRC32][magic][fields in declaration order]
//
// The CRC32-IEEE (4 bytes, big-endian) covers everything after it, so
// link corruption surfaces at decode and is handled like loss. The magic
// (4 bytes, big-endian) names the message kind: kinds share conns, and
// each decoder rejects the others on that first check. Fields follow in
// a fixed order with no self-description: unsigned integers as
// binary.AppendUvarint, signed ones as binary.AppendVarint, a count
// before each list, float64 as 8-byte big-endian IEEE-754 and bool as
// one byte, 0 or 1. Each codec owns its field order, caps and semantic
// checks; this file only provides the framing and the primitives.
//
// Decoding is strict so that an accepted message re-encodes to exactly
// the bytes received: non-minimal and overlong varints, bool bytes other
// than 0 or 1, and trailing bytes are all rejected. WireReader.count
// checks a list's count against its cap and against the bytes left
// before the caller allocates anything, so a hostile count cannot buy
// an allocation larger than the message that carried it.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// wireHeaderLen is the fixed message header: CRC32 then magic.
const wireHeaderLen = 8

// ErrWire reports a message that does not decode: wrong size or kind,
// checksum mismatch, a field that is truncated, non-canonical or over
// its cap, or trailing bytes.
var ErrWire = errors.New("transport: malformed wire message")

// errWireKind is returned for a well-sized message of another kind, the
// common case on conns several kinds share; it is preallocated so that
// skipping a foreign frame costs no allocation.
var errWireKind = fmt.Errorf("%w: foreign message kind", ErrWire)

// NewWire starts a message of the given kind: a zeroed CRC slot and the
// magic, with capacity for size more bytes of fields.
func NewWire(magic uint32, size int) []byte {
	b := make([]byte, wireHeaderLen, wireHeaderLen+size)
	binary.BigEndian.PutUint32(b[4:], magic)
	return b
}

// SealWire fills the CRC slot of a message NewWire started and returns
// it.
func SealWire(b []byte) []byte {
	binary.BigEndian.PutUint32(b[:4], crc32.ChecksumIEEE(b[4:]))
	return b
}

// The Append helpers are thin over encoding/binary on purpose: a codec
// writes every field through this package, so the keyflow analyzer sees
// each field write as a wire sink (encoding/binary itself is clean).

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends v as a signed (zig-zag) varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendInts appends the count of xs, then each element as AppendInt.
func AppendInts(b []byte, xs []int) []byte {
	b = AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendInt(b, x)
	}
	return b
}

// AppendFloat64s appends each element of xs as 8 big-endian IEEE-754
// bytes, without a count: a list field writes its count first.
func AppendFloat64s(b []byte, xs []float64) []byte {
	for _, x := range xs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends the length of p, then p.
func AppendBytes(b, p []byte) []byte {
	return append(AppendUvarint(b, uint64(len(p))), p...)
}

// AppendString appends the length of s, then s.
func AppendString(b []byte, s string) []byte {
	return append(AppendUvarint(b, uint64(len(s))), s...)
}

// WireReader decodes the fields of one message in order. Its error is
// sticky: after the first failure every read returns a zero value, so a
// codec reads all its fields and checks Finish once.
type WireReader struct {
	buf []byte
	off int
	err error
}

// OpenWire checks a message's size against [wireHeaderLen, maxBytes],
// its magic and its CRC, and returns a reader positioned at the first
// field.
func OpenWire(data []byte, magic uint32, maxBytes int) (WireReader, error) {
	switch {
	case len(data) > maxBytes:
		return WireReader{}, fmt.Errorf("%w: %d bytes exceeds cap %d", ErrWire, len(data), maxBytes)
	case len(data) < wireHeaderLen:
		return WireReader{}, fmt.Errorf("%w: short message (%d bytes)", ErrWire, len(data))
	case binary.BigEndian.Uint32(data[4:wireHeaderLen]) != magic:
		return WireReader{}, errWireKind
	case binary.BigEndian.Uint32(data[:4]) != crc32.ChecksumIEEE(data[4:]):
		return WireReader{}, fmt.Errorf("%w: checksum mismatch", ErrWire)
	}
	return WireReader{buf: data, off: wireHeaderLen}, nil
}

func (r *WireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrWire}, args...)...)
	}
}

// left is the number of unread bytes.
func (r *WireReader) left() int { return len(r.buf) - r.off }

// Uvarint reads an unsigned varint, rejecting truncated, overlong and
// non-minimal encodings.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail("truncated varint at byte %d", r.off)
		return 0
	case n < 0:
		r.fail("overlong varint at byte %d", r.off)
		return 0
	case n > 1 && r.buf[r.off+n-1] == 0:
		// A minimal varint never ends in a zero continuation group.
		r.fail("non-minimal varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int reads a signed (zig-zag) varint written by AppendInt.
func (r *WireReader) Int() int {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads one byte that must be 0 or 1.
func (r *WireReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.left() < 1 {
		r.fail("truncated bool at byte %d", r.off)
		return false
	}
	c := r.buf[r.off]
	if c > 1 {
		r.fail("bool byte %d at byte %d", c, r.off)
		return false
	}
	r.off++
	return c == 1
}

// count reads a list count and checks it against limit and against the
// bytes left (each element takes at least elemSize bytes) before the
// caller allocates the list.
func (r *WireReader) count(limit, elemSize int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(limit) {
		r.fail("count %d exceeds cap %d", v, limit)
		return 0
	}
	if v > uint64(r.left()/elemSize) {
		r.fail("count %d exceeds the %d bytes left", v, r.left())
		return 0
	}
	return int(v)
}

// Ints reads a list written by AppendInts, of at most limit elements.
func (r *WireReader) Ints(limit int) []int {
	n := r.count(limit, 1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// Float64s reads a count, then that many float64 values, of at most
// limit elements.
func (r *WireReader) Float64s(limit int) []float64 {
	n := r.count(limit, 8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
		r.off += 8
	}
	return out
}

// Bytes reads a byte string written by AppendBytes, of at most limit
// bytes, into a fresh slice.
func (r *WireReader) Bytes(limit int) []byte {
	n := r.count(limit, 1)
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	r.off += copy(out, r.buf[r.off:])
	return out
}

// String reads a string written by AppendString, of at most limit bytes.
func (r *WireReader) String(limit int) string {
	n := r.count(limit, 1)
	if n == 0 {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Finish reports the first read error, or trailing bytes when every
// read succeeded: a message must be consumed exactly.
func (r *WireReader) Finish() error {
	if r.err == nil && r.left() != 0 {
		r.fail("%d trailing bytes", r.left())
	}
	return r.err
}
