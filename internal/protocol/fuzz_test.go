package protocol

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// FuzzDecode feeds decode arbitrary bytes plus mutations of valid
// envelopes. It must never panic, every envelope it does accept must
// respect the wire-format caps — a corrupted or hostile peer cannot
// drive allocations through oversized Indices/Code/Windows payloads —
// and must re-encode to exactly the bytes decoded: the format has one
// encoding per envelope.
func FuzzDecode(f *testing.F) {
	seed := []Envelope{
		{Type: MsgKept, Session: "s", Seq: 1, Window: 3, Indices: []int{1, 2, 3}},
		{Type: MsgFinal, Session: "sess-1", Seq: 9, Window: 0, Indices: []int{0, 31}},
		{Type: MsgSyndrome, Session: "s", Seq: 2, Round: 1, Code: []float64{0.5, -1.25}, MAC: bytes.Repeat([]byte{7}, 16), Windows: []int{0, 1}, Counts: []int{40, 24}},
		{Type: MsgConfirm, Session: "s", Seq: 3, Round: 1, MAC: make([]byte, 16)},
		{Type: MsgResult, Session: "s", Seq: 4, Round: 1, Accepted: true},
		{Type: MsgDone, Session: "s", Seq: 5, Round: 7},
	}
	for _, e := range seed {
		data := encode(e)
		f.Add(data)
		// A mutated-valid variant so the corpus starts near the format.
		mut := append([]byte(nil), data...)
		if len(mut) > 4 {
			mut[len(mut)/2] ^= 0xA5
			mut[len(mut)-1] ^= 0x5A
		}
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decode(data)
		if err != nil {
			return
		}
		if e.Type < MsgKept || e.Type > MsgDone {
			t.Fatalf("decode accepted unknown type %d", e.Type)
		}
		if len(e.Indices) > MaxIndices {
			t.Fatalf("decode accepted %d indices", len(e.Indices))
		}
		if len(e.Code) > MaxCode {
			t.Fatalf("decode accepted code of %d", len(e.Code))
		}
		if len(e.MAC) > MaxMACBytes {
			t.Fatalf("decode accepted MAC of %d bytes", len(e.MAC))
		}
		if len(e.Windows) > MaxIndices || len(e.Counts) > MaxIndices {
			t.Fatalf("decode accepted %d windows / %d counts", len(e.Windows), len(e.Counts))
		}
		if e.Round < 0 || e.Round > MaxRounds {
			t.Fatalf("decode accepted round %d", e.Round)
		}
		if e.Window < 0 || e.Window > MaxIndices {
			t.Fatalf("decode accepted window %d", e.Window)
		}
		if again := encode(e); !bytes.Equal(again, data) {
			t.Fatalf("accepted envelope re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}

// TestDecodeRejectsOversized: encode writes whatever it is given, so each
// case is a well-formed frame that only a cap or range check rejects.
func TestDecodeRejectsOversized(t *testing.T) {
	huge := make([]int, MaxIndices+1)
	for _, e := range []Envelope{
		{Type: MsgKept, Session: "s", Seq: 1, Indices: huge},
		{Type: MsgSyndrome, Session: "s", Seq: 1, Code: make([]float64, MaxCode+1)},
		{Type: MsgSyndrome, Session: "s", Seq: 1, MAC: make([]byte, MaxMACBytes+1)},
		{Type: MsgSyndrome, Session: "s", Seq: 1, Windows: huge},
		{Type: MsgSyndrome, Session: "s", Seq: 1, Counts: huge},
		{Type: 0, Session: "s", Seq: 1},
		{Type: MsgDone + 1, Session: "s", Seq: 1},
		// A hostile Round used to drive RunAlice's failure back-fill
		// loops (and the per-round bookkeeping they allocate) to any
		// length the peer picked; decode now rejects it at the wire.
		{Type: MsgDone, Session: "s", Seq: 1, Round: MaxRounds + 1},
		{Type: MsgSyndrome, Session: "s", Seq: 1, Round: -1},
		{Type: MsgKept, Session: "s", Seq: 1, Window: MaxIndices + 1},
		{Type: MsgKept, Session: "s", Seq: 1, Window: -1},
	} {
		if _, err := decode(encode(e)); err == nil {
			t.Fatalf("decode accepted out-of-bounds envelope %+v", e.Type)
		}
	}
	// Well-formed but one session string too long for the byte cap.
	long := Envelope{Type: MsgDone, Session: strings.Repeat("s", MaxEnvelopeBytes), Seq: 1}
	if _, err := decode(encode(long)); err == nil {
		t.Fatal("decode accepted an envelope beyond the byte cap")
	}
}

// resultFields is a valid RESULT envelope as one byte slice per field,
// in declaration order, so a case can replace exactly one field.
func resultFields() [][]byte {
	return [][]byte{
		transport.AppendInt(nil, int(MsgResult)), // Type
		transport.AppendString(nil, "s"),         // Session
		transport.AppendUvarint(nil, 1),          // Seq
		transport.AppendInt(nil, 0),              // Window
		transport.AppendInts(nil, nil),           // Indices
		transport.AppendUvarint(nil, 0),          // Code count
		transport.AppendBytes(nil, nil),          // MAC
		transport.AppendInt(nil, 1),              // Round
		transport.AppendBool(nil, true),          // Accepted
		transport.AppendInts(nil, nil),           // Windows
		transport.AppendInts(nil, nil),           // Counts
	}
}

func TestDecodeRejectsCorruptFrame(t *testing.T) {
	data := encode(Envelope{Type: MsgKept, Session: "s", Seq: 1, Indices: []int{1, 2}})
	if _, err := decode(data); err != nil {
		t.Fatalf("intact frame rejected: %v", err)
	}
	for _, pos := range []int{0, 2, 4, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if _, err := decode(bad); err == nil {
			t.Fatalf("flipped byte %d went undetected", pos)
		}
	}
	if _, err := decode(data[:3]); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, err := decode(transporttest.SealFields(envelopeMagic, resultFields()...)); err != nil {
		t.Fatalf("hand-built RESULT rejected: %v", err)
	}

	with := func(i int, field []byte) [][]byte {
		fs := resultFields()
		fs[i] = field
		return fs
	}
	cases := []struct {
		name string
		data []byte
	}{
		// Counts (the last field) announces two ints, the bytes hold one.
		{"truncated list", transporttest.SealFields(envelopeMagic, with(10, transport.AppendInt([]byte{2}, 300))...)},
		{"count beyond bytes left", transporttest.SealFields(envelopeMagic, with(5, transport.AppendUvarint(nil, 1000))...)},
		{"trailing bytes", transporttest.SealFields(envelopeMagic, append(resultFields(), []byte{0})...)},
		{"bool byte 2", transporttest.SealFields(envelopeMagic, with(8, []byte{2})...)},
		{"overlong varint", transporttest.SealFields(envelopeMagic, with(2, append(bytes.Repeat([]byte{0xff}, 10), 1))...)},
		{"non-minimal varint", transporttest.SealFields(envelopeMagic, with(2, []byte{0x81, 0x00})...)},
		{"truncated message", transport.SealWire(bytes.Clone(data[:len(data)-1]))},
		// The other two kinds sharing a conn, with their own magics and
		// field layouts (server.Hello: Vehicle, Windows, Session; group
		// frame: Kind, Member, Epoch, Windows, Sealed).
		{"server hello", transporttest.SealFields(0x564b4859,
			transport.AppendUvarint(nil, 7), transport.AppendInt(nil, 4), transport.AppendString(nil, "s"))},
		{"group frame", transporttest.SealFields(0x564b4750,
			transport.AppendUvarint(nil, 3), transport.AppendUvarint(nil, 7), transport.AppendUvarint(nil, 1),
			transport.AppendInt(nil, 0), transport.AppendBytes(nil, nil))},
	}
	for _, c := range cases {
		if _, err := decode(c.data); err == nil {
			t.Errorf("%s: decode accepted %x", c.name, c.data)
		}
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	e := Envelope{
		Type: MsgSyndrome, Session: "round-trip", Seq: 42, Round: 3,
		Code: []float64{1, 2.5, -3}, MAC: bytes.Repeat([]byte{9}, 16),
		Windows: []int{0, 2, 5}, Counts: []int{40, 38, 44},
	}
	got, err := decode(encode(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != e.Session || got.Seq != e.Seq || got.Round != e.Round ||
		len(got.Code) != len(e.Code) || len(got.Windows) != len(e.Windows) {
		t.Fatalf("round trip mangled envelope: %+v", got)
	}
}
