package server

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
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

// encodeHello writes h in the transport wire layout under helloMagic,
// the same CRC32-framed layout as the protocol envelopes, so link
// corruption surfaces at decode.
func encodeHello(h Hello) []byte {
	b := transport.NewWire(helloMagic, 16+len(h.Session))
	b = transport.AppendUvarint(b, h.Vehicle)
	b = transport.AppendInt(b, h.Windows)
	b = transport.AppendString(b, h.Session)
	return transport.SealWire(b)
}

// decodeHello parses and validates one hello frame. Anything that is
// not a well-formed hello within the caps reports errNotHello.
func decodeHello(data []byte) (Hello, error) {
	r, err := transport.OpenWire(data, helloMagic, MaxHelloBytes)
	if err != nil {
		return Hello{}, errNotHello
	}
	h := Hello{Vehicle: r.Uvarint(), Windows: r.Int(), Session: r.String(MaxSessionLen)}
	switch {
	case r.Finish() != nil:
		return Hello{}, errNotHello
	case h.Windows < 1 || h.Windows > MaxHelloWindows:
		return Hello{}, errNotHello
	case len(h.Session) == 0:
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
// experiment engine's sub-stream discipline (rng.SubSeedUint64 over the
// full 64-bit ID), so every
// vehicle gets a decoupled, order-independent channel realization, and
// the trace layer's per-window normalization keeps these small
// per-session datasets consistent with the training distribution.
func SessionWindowsFor(sc trace.Scenario, cfg core.Config, seed int64, vehicle uint64, n int, rx trace.Receivers) (alice, bob [][]float64, err error) {
	cfg.Normalize()
	ds, err := trace.BuildFor(sc, rng.SubSeedUint64(seed, "server/session", vehicle), n, cfg.SeqLen, trace.DefaultExtract(), rx)
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
