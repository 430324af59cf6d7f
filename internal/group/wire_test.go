package group

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{Kind: kindJoin, Member: 7, Windows: 16},
		{Kind: kindKey, Member: 7, Epoch: 3, Sealed: bytes.Repeat([]byte{0xAB}, 48)},
		{Kind: kindAck, Member: 7, Epoch: 3},
		{Kind: kindLeave, Member: 7},
		{Kind: kindBye, Member: 7},
		{Kind: kindWelcome, Member: 7},
	}
	for _, want := range cases {
		got, err := decodeFrame(encodeFrame(want))
		if err != nil {
			t.Fatalf("kind %d: %v", want.Kind, err)
		}
		if got.Kind != want.Kind || got.Member != want.Member ||
			got.Epoch != want.Epoch || got.Windows != want.Windows ||
			!bytes.Equal(got.Sealed, want.Sealed) {
			t.Fatalf("kind %d: round trip mismatch: %+v vs %+v", want.Kind, got, want)
		}
	}
}

func TestFrameDecodeRejectsGarbage(t *testing.T) {
	valid := encodeFrame(frame{Kind: kindAck, Member: 1, Epoch: 1})
	reject := func(name string, data []byte) {
		t.Helper()
		if _, err := decodeFrame(data); !errors.Is(err, errNotGroupFrame) {
			t.Fatalf("%s: want errNotGroupFrame, got %v", name, err)
		}
	}
	reject("empty", nil)
	reject("short", valid[:3])
	reject("oversized", make([]byte, MaxFrameBytes+1))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xFF
	reject("crc flip", flipped)
	reject("random", bytes.Repeat([]byte{0x42}, 64))

	reject("foreign magic", append([]byte{0, 0, 0, 0}, valid[4:]...))

	kind, member, epoch := transport.AppendUvarint(nil, uint64(kindAck)), transport.AppendUvarint(nil, 1), transport.AppendUvarint(nil, 1)
	windows, sealed := transport.AppendInt(nil, 0), transport.AppendBytes(nil, nil)
	reject("truncated", transport.SealWire(bytes.Clone(valid[:len(valid)-1])))
	reject("count beyond bytes left", transporttest.SealFields(frameMagic, kind, member, epoch, windows, []byte{5, 1, 2}))
	reject("trailing bytes", transporttest.SealFields(frameMagic, kind, member, epoch, windows, sealed, []byte{0}))
	reject("overlong varint", transporttest.SealFields(frameMagic, kind, append(bytes.Repeat([]byte{0xff}, 10), 1), epoch, windows, sealed))
	reject("non-minimal varint", transporttest.SealFields(frameMagic, kind, []byte{0x81, 0x00}, epoch, windows, sealed))
	// Wider than the uint8/uint32 fields: narrowing would alias a valid
	// kind or epoch and break the one-encoding-per-frame property.
	reject("kind beyond uint8", transporttest.SealFields(frameMagic, transport.AppendUvarint(nil, 256+uint64(kindAck)), member, epoch, windows, sealed))
	reject("epoch beyond uint32", transporttest.SealFields(frameMagic, kind, member, transport.AppendUvarint(nil, 1<<32+1), windows, sealed))
	// The other two kinds sharing the conn must be skipped, not
	// misparsed: a pairwise protocol envelope (Type, Session, Seq, Window,
	// Indices, Code, MAC, Round, Accepted, Windows, Counts) and a server
	// hello (Vehicle, Windows, Session), each under its own magic.
	reject("protocol envelope", transporttest.SealFields(0x564b4556, transport.AppendInt(nil, 1), transport.AppendString(nil, "s"),
		member, []byte{0, 0, 0, 0, 0}, []byte{0, 0, 0}))
	reject("server hello", transporttest.SealFields(0x564b4859, member, transport.AppendInt(nil, 4), transport.AppendString(nil, "s")))
}

// TestFrameGolden pins a group frame's wire bytes. Under gob, type ids
// were handed out in process-global first-use order, so the bytes a
// process sent depended on what it had encoded before; the explicit
// codec makes them a function of the frame alone.
func TestFrameGolden(t *testing.T) {
	got := hex.EncodeToString(encodeFrame(frame{Kind: kindKey, Member: 7, Epoch: 3, Sealed: []byte{0xAB, 0xCD}}))
	const want = "149b93d4564b47500207030002abcd"
	if got != want {
		t.Fatalf("frame bytes = %s, want %s", got, want)
	}
}

// FuzzDecodeFrame: decodeFrame never panics, every frame it accepts is
// within the wire caps and join/key rules, and it re-encodes to exactly
// the bytes decoded.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range []frame{
		{Kind: kindJoin, Member: 7, Windows: 16},
		{Kind: kindKey, Member: 7, Epoch: 3, Sealed: bytes.Repeat([]byte{0xAB}, 48)},
		{Kind: kindAck, Member: 1 << 50, Epoch: 1<<32 - 1},
		{Kind: kindWelcome, Member: 7},
	} {
		data := encodeFrame(fr)
		f.Add(data)
		mut := bytes.Clone(data)
		mut[len(mut)-1] ^= 0x5A
		f.Add(transport.SealWire(mut))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			return
		}
		switch {
		case fr.Kind < kindJoin || fr.Kind > kindWelcome,
			len(fr.Sealed) > MaxSealedBytes,
			fr.Windows < 0 || fr.Windows > MaxFrameWindows,
			fr.Kind == kindJoin && fr.Windows < 1,
			fr.Kind == kindKey && len(fr.Sealed) == 0:
			t.Fatalf("decode accepted out-of-cap frame %+v", fr)
		}
		if again := encodeFrame(fr); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}

func TestFrameDecodeEnforcesCaps(t *testing.T) {
	reject := func(name string, fr frame) {
		t.Helper()
		if _, err := decodeFrame(encodeFrame(fr)); !errors.Is(err, errNotGroupFrame) {
			t.Fatalf("%s: want errNotGroupFrame, got %v", name, err)
		}
	}
	reject("kind zero", frame{Kind: 0})
	reject("kind out of range", frame{Kind: kindWelcome + 1})
	reject("sealed over cap", frame{Kind: kindKey, Sealed: make([]byte, MaxSealedBytes+1)})
	reject("key without payload", frame{Kind: kindKey, Epoch: 1})
	reject("join without windows", frame{Kind: kindJoin, Member: 1})
	reject("negative windows", frame{Kind: kindJoin, Member: 1, Windows: -1})
	reject("windows over cap", frame{Kind: kindJoin, Member: 1, Windows: MaxFrameWindows + 1})
}
