package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// TestHelloRoundTrip: a well-formed hello survives encode/decode with
// every field intact.
func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Vehicle: 42, Windows: 8, Session: "vk/vehicle/42"}
	out, err := decodeHello(encodeHello(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("roundtrip = %+v", out)
	}
}

// TestHelloGolden pins the hello's wire bytes. Under gob, type ids were
// handed out in process-global first-use order, so the bytes a process
// sent depended on what it had encoded before; the explicit codec makes
// them a function of the hello alone.
func TestHelloGolden(t *testing.T) {
	got := hex.EncodeToString(encodeHello(Hello{Vehicle: 42, Windows: 8, Session: "vk/vehicle/42"}))
	const want = "17de2273564b48592a100d766b2f76656869636c652f3432"
	if got != want {
		t.Fatalf("hello bytes = %s, want %s", got, want)
	}
}

// TestHelloDecodeRejects: everything that is not a well-formed hello
// within the wire caps reports errNotHello — the handshake loop treats
// all of it as a protocol envelope racing ahead and skips it.
func TestHelloDecodeRejects(t *testing.T) {
	valid := encodeHello(Hello{Vehicle: 1, Windows: 4, Session: "s"})
	corruptPayload := append([]byte(nil), valid...)
	corruptPayload[len(corruptPayload)-1] ^= 0xFF
	corruptCRC := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(corruptCRC[:4], binary.BigEndian.Uint32(corruptCRC[:4])^0xdeadbeef)

	vehicle, windows, session := transport.AppendUvarint(nil, 1), transport.AppendInt(nil, 4), transport.AppendString(nil, "s")
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte{1, 2, 3}},
		{"oversize", make([]byte, MaxHelloBytes+1)},
		{"corrupt-payload", corruptPayload},
		{"corrupt-crc", corruptCRC},
		{"garbage-fields", transporttest.SealFields(helloMagic, []byte("plainly not a hello"))},
		{"bad-magic", transporttest.SealFields(0x01020304, vehicle, windows, session)},
		{"zero-windows", encodeHello(Hello{Vehicle: 1, Windows: 0, Session: "s"})},
		{"huge-windows", encodeHello(Hello{Vehicle: 1, Windows: MaxHelloWindows + 1, Session: "s"})},
		{"empty-session", encodeHello(Hello{Vehicle: 1, Windows: 4})},
		{"long-session", encodeHello(Hello{Vehicle: 1, Windows: 4, Session: strings.Repeat("s", MaxSessionLen+1)})},
		{"truncated", transport.SealWire(bytes.Clone(valid[:len(valid)-1]))},
		{"count-beyond-bytes", transporttest.SealFields(helloMagic, vehicle, windows, transport.AppendUvarint(nil, 9), []byte("s"))},
		{"trailing-bytes", transporttest.SealFields(helloMagic, vehicle, windows, session, []byte{0})},
		{"overlong-varint", transporttest.SealFields(helloMagic, append(bytes.Repeat([]byte{0xff}, 10), 1), windows, session)},
		{"non-minimal-varint", transporttest.SealFields(helloMagic, []byte{0x81, 0x00}, windows, session)},
		// The other two kinds sharing a conn: a protocol envelope (Type,
		// Session, Seq, Window, Indices, Code, MAC, Round, Accepted,
		// Windows, Counts) and a group frame (Kind, Member, Epoch,
		// Windows, Sealed), under their own magics.
		{"protocol-envelope", transporttest.SealFields(0x564b4556, transport.AppendInt(nil, 1), session,
			transport.AppendUvarint(nil, 1), []byte{0, 0, 0, 0, 0}, []byte{0, 0, 0})},
		{"group-frame", transporttest.SealFields(0x564b4750, transport.AppendUvarint(nil, 1), vehicle,
			transport.AppendUvarint(nil, 0), windows, transport.AppendBytes(nil, nil))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeHello(c.data); !errors.Is(err, errNotHello) {
				t.Fatalf("decode = %v, want errNotHello", err)
			}
		})
	}
}

// FuzzDecodeHello: decodeHello never panics, every hello it accepts is
// within the wire caps, and it re-encodes to exactly the bytes decoded.
func FuzzDecodeHello(f *testing.F) {
	for _, h := range []Hello{
		{Vehicle: 1, Windows: 4, Session: "s"},
		{Vehicle: 1 << 40, Windows: MaxHelloWindows, Session: strings.Repeat("v", MaxSessionLen)},
	} {
		data := encodeHello(h)
		f.Add(data)
		mut := bytes.Clone(data)
		mut[len(mut)-1] ^= 0x5A
		f.Add(transport.SealWire(mut))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		if h.Windows < 1 || h.Windows > MaxHelloWindows || len(h.Session) == 0 || len(h.Session) > MaxSessionLen {
			t.Fatalf("decode accepted out-of-cap hello %+v", h)
		}
		if again := encodeHello(h); !bytes.Equal(again, data) {
			t.Fatalf("accepted hello re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}

// TestSessionWindowsDeterministic: both endpoints calling SessionWindows
// with the same (scenario, config, seed, vehicle) derive byte-identical
// windows — that shared derivation is what stands in for the two radios
// probing one physical channel.
func TestSessionWindowsDeterministic(t *testing.T) {
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	cfg := core.DefaultConfig()
	a1, b1, err := SessionWindows(sc, cfg, 21, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := SessionWindows(sc, cfg, 21, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != 4 || len(b1) != 4 {
		t.Fatalf("derived %d/%d windows, want 4/4", len(a1), len(b1))
	}
	for i := range a1 {
		for j := range a1[i] {
			if a1[i][j] != a2[i][j] || b1[i][j] != b2[i][j] {
				t.Fatalf("window %d diverges between identical derivations", i)
			}
		}
	}

	// A different vehicle is a different channel realization.
	a3, _, err := SessionWindows(sc, cfg, 21, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a1 {
		for j := range a1[i] {
			if a1[i][j] != a3[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("vehicles 7 and 8 derived identical windows")
	}
}
