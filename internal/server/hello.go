package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Hello is the pre-protocol handshake a vehicle sends as its first
// message: which vehicle is calling, how many probing windows the
// session will run, and the session identifier the protocol envelopes
// will carry. Both endpoints then derive the session's aligned
// measurement windows independently from (shared seed, vehicle ID), so
// the handshake never moves channel measurements over the wire.
//
// There is no acknowledgement. Over TCP the hello is the first frame of
// the stream and cannot be lost; over UDP the vehicle sends Copies
// redundant hellos and starts the protocol immediately — any protocol
// envelope that races ahead of the hello is dropped by the server's
// handshake loop and retransmitted by the ARQ layer, so hello loss is
// absorbed the same way wire loss is everywhere else.
//
//vklint:wire -- decoded from unauthenticated vehicles; treat field reads as hostile
type Hello struct {
	Magic   uint32
	Vehicle uint64
	Windows int
	Session string
}

// helloMagic distinguishes hellos from protocol envelopes at decode.
const helloMagic = 0x564b4859 // "VKHY"

// Handshake wire caps, mirroring the protocol layer's decode hygiene:
// reject before allocating or trusting anything oversized.
const (
	// MaxHelloBytes bounds one encoded hello.
	MaxHelloBytes = 4096
	// MaxSessionLen bounds the session identifier.
	MaxSessionLen = 128
	// MaxHelloWindows is the hard wire-format cap on the announced window
	// count; Config.MaxWindows applies the (lower) serving-policy cap.
	MaxHelloWindows = 1 << 12
)

// errNotHello flags a frame that is not a hello (most likely a protocol
// envelope that raced ahead of one); the handshake loop skips it.
var errNotHello = errors.New("server: not a hello")

// encodeHello frames h like the protocol envelopes: a CRC32 header over
// the gob payload, so link corruption surfaces at decode.
func encodeHello(h Hello) ([]byte, error) {
	h.Magic = helloMagic
	var buf bytes.Buffer
	buf.Write(make([]byte, 4))
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return nil, fmt.Errorf("server: encode hello: %w", err)
	}
	data := buf.Bytes()
	binary.BigEndian.PutUint32(data[:4], crc32.ChecksumIEEE(data[4:]))
	return data, nil
}

// decodeHello parses and validates one hello frame. Anything that is
// not a well-formed hello within the caps reports errNotHello.
func decodeHello(data []byte) (Hello, error) {
	if len(data) < 4 || len(data) > MaxHelloBytes {
		return Hello{}, errNotHello
	}
	if want := binary.BigEndian.Uint32(data[:4]); want != crc32.ChecksumIEEE(data[4:]) {
		return Hello{}, errNotHello
	}
	var h Hello
	if err := gob.NewDecoder(bytes.NewReader(data[4:])).Decode(&h); err != nil {
		return Hello{}, errNotHello
	}
	switch {
	case h.Magic != helloMagic:
		return Hello{}, errNotHello
	case h.Windows < 1 || h.Windows > MaxHelloWindows:
		return Hello{}, errNotHello
	case len(h.Session) == 0 || len(h.Session) > MaxSessionLen:
		return Hello{}, errNotHello
	}
	return h, nil
}

// SessionWindows derives one session's aligned measurement windows for
// both legitimate sides: SessionWindowsFor with Alice and Bob.
func SessionWindows(sc trace.Scenario, cfg core.Config, seed int64, vehicle uint64, n int) (alice, bob [][]float64, err error) {
	return SessionWindowsFor(sc, cfg, seed, vehicle, n, trace.Alice|trace.Bob)
}

// SessionWindowsFor derives one session's measurement windows for the
// legitimate sides in rx; a side rx does not select comes back nil. Both
// endpoints call it with the same scenario, configuration, shared seed,
// and vehicle ID, each selecting only its own side — the server (Alice)
// trace.Alice, the vehicle (Bob) trace.Bob — and get exactly the windows
// a joint derivation gives that side. The derivation reuses the
// experiment engine's sub-stream discipline (rng.SubSeed), so every
// vehicle gets a decoupled, order-independent channel realization, and
// the trace layer's per-window normalization keeps these small
// per-session datasets consistent with the training distribution.
func SessionWindowsFor(sc trace.Scenario, cfg core.Config, seed int64, vehicle uint64, n int, rx trace.Receivers) (alice, bob [][]float64, err error) {
	cfg.Normalize()
	ds, err := trace.BuildFor(sc, rng.SubSeed(seed, "server/session", int(vehicle)), n, cfg.SeqLen, trace.DefaultExtract(), rx)
	if err != nil {
		return nil, nil, fmt.Errorf("server: session windows: %w", err)
	}
	for _, smp := range ds.Samples {
		if rx&trace.Alice != 0 {
			alice = append(alice, smp.Alice)
		}
		if rx&trace.Bob != 0 {
			bob = append(bob, smp.Bob)
		}
	}
	return alice, bob, nil
}
