package transport

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
)

const testMagic = 0x54455354 // "TEST"

// openFields seals fields under testMagic and opens them again.
func openFields(t *testing.T, fields ...[]byte) WireReader {
	t.Helper()
	b := NewWire(testMagic, 0)
	for _, f := range fields {
		b = append(b, f...)
	}
	r, err := OpenWire(SealWire(b), testMagic, 1<<10)
	if err != nil {
		t.Fatalf("OpenWire: %v", err)
	}
	return r
}

func TestWireRoundTrip(t *testing.T) {
	b := NewWire(testMagic, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendInt(b, math.MinInt64)
	b = AppendInts(b, []int{0, -1, 300})
	b = AppendUvarint(b, 2)
	b = AppendFloat64s(b, []float64{math.Inf(-1), math.Copysign(0, -1)})
	b = AppendBool(b, true)
	b = AppendBytes(b, []byte{1, 2})
	b = AppendString(b, "vk")
	r, err := OpenWire(SealWire(b), testMagic, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	u, i, ints := r.Uvarint(), r.Int(), r.Ints(8)
	fs, ok, raw, s := r.Float64s(8), r.Bool(), r.Bytes(8), r.String(8)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if u != math.MaxUint64 || i != math.MinInt64 || len(ints) != 3 || ints[1] != -1 || ints[2] != 300 ||
		len(fs) != 2 || !math.IsInf(fs[0], -1) || !math.Signbit(fs[1]) || !ok ||
		!bytes.Equal(raw, []byte{1, 2}) || s != "vk" {
		t.Fatalf("round trip mangled fields: %v %v %v %v %v %v %q", u, i, ints, fs, ok, raw, s)
	}
}

func TestOpenWireRejects(t *testing.T) {
	valid := SealWire(AppendUvarint(NewWire(testMagic, 0), 1))
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 1
	for name, data := range map[string][]byte{
		"short":     valid[:wireHeaderLen-1],
		"oversized": SealWire(append(NewWire(testMagic, 0), make([]byte, 32)...)),
		"kind":      SealWire(AppendUvarint(NewWire(testMagic+1, 0), 1)),
		"checksum":  badCRC,
	} {
		if _, err := OpenWire(data, testMagic, 16); !errors.Is(err, ErrWire) {
			t.Errorf("%s: OpenWire = %v, want ErrWire", name, err)
		}
	}
}

// TestWireCountBoundsBeforeAllocation: a count over its cap, or over
// what the bytes left could hold, fails at the count itself, so the
// caller never allocates for it.
func TestWireCountBoundsBeforeAllocation(t *testing.T) {
	r := openFields(t, AppendUvarint(nil, 5), make([]byte, 16))
	if n := r.count(4, 1); n != 0 || !errors.Is(r.Finish(), ErrWire) {
		t.Fatalf("count over cap: n=%d err=%v", n, r.Finish())
	}
	r = openFields(t, AppendUvarint(nil, 3), make([]byte, 16))
	if n := r.count(8, 8); n != 0 || !errors.Is(r.Finish(), ErrWire) {
		t.Fatalf("count beyond bytes left: n=%d err=%v", n, r.Finish())
	}
	r = openFields(t, AppendUvarint(nil, 2), make([]byte, 16))
	if n := r.count(8, 8); n != 2 || r.err != nil {
		t.Fatalf("count within bounds: n=%d err=%v", n, r.err)
	}
	// A 1<<20-element float list would take 8 MiB; the rejected count
	// must cost no more than its error.
	r = openFields(t, AppendUvarint(nil, 1<<20), make([]byte, 8))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fs := r.Float64s(1 << 30)
	runtime.ReadMemStats(&after)
	if fs != nil || after.TotalAlloc-before.TotalAlloc > 1<<16 {
		t.Fatalf("hostile count: list %d, allocated %d bytes", len(fs), after.TotalAlloc-before.TotalAlloc)
	}
}

func TestWireReaderRejectsNonCanonical(t *testing.T) {
	for name, field := range map[string][]byte{
		"truncated varint":   {0x80},
		"overlong varint":    append(bytes.Repeat([]byte{0xff}, 10), 1),
		"non-minimal varint": {0x81, 0x00},
	} {
		r := openFields(t, field)
		if r.Uvarint(); !errors.Is(r.Finish(), ErrWire) {
			t.Errorf("%s accepted", name)
		}
	}
	r := openFields(t, []byte{2})
	if r.Bool(); !errors.Is(r.Finish(), ErrWire) {
		t.Error("bool byte 2 accepted")
	}
	r = openFields(t, []byte{1, 0})
	if r.Uvarint(); !errors.Is(r.Finish(), ErrWire) {
		t.Error("trailing byte accepted")
	}
	// The error is sticky: later reads return zero values.
	r = openFields(t, []byte{0x80}, AppendUvarint(nil, 7))
	if r.Uvarint(); r.Uvarint() != 0 || r.Finish() == nil {
		t.Error("read after a failure returned data")
	}
}
