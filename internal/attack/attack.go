// Package attack implements the adversary models of the paper's Sec. III
// and the active attacks its protocol defends against (Sec. IV-C):
//
//   - Eavesdropper: a passive Eve parked near the infrastructure who
//     records every protocol message and her own channel measurements,
//     then runs the full legitimate pipeline (she knows the protocol and
//     the trained models) including feeding intercepted code vectors to
//     the reconciler.
//   - Imitator: an Eve who replays the victim's route to collect
//     correlated large-scale measurements.
//   - MITM: an active attacker on the wire who tampers with syndrome
//     messages; the MAC check must reject the round.
//   - Replayer: an attacker who re-injects captured messages; sequence
//     tracking must reject them.
//
// The passive attackers are measured by core.System.EvaluateEve (its
// imitate flag picks the position); the active ones operate on protocol
// messages through a tampering transport.
package attack

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/transport"
)

// KeyProbability bounds the attacker's chance of reproducing one full
// key of bits length given her measured per-bit agreement.
func KeyProbability(perBitAgreement float64, bits int) float64 {
	p := 1.0
	for i := 0; i < bits; i++ {
		p *= perBitAgreement
	}
	return p
}

// TamperConn wraps a transport and corrupts the payload of the nth
// message that flows through Send, modeling an on-path MITM who modifies
// a syndrome. The attacker knows the wire format, so after flipping
// payload bytes it recomputes the (unkeyed) CRC32 frame header — the
// checksum only defends against random corruption; rejecting the
// tampered round is the keyed MAC's job.
type TamperConn struct {
	transport.Conn
	// TamperAt is the 1-based index of the message to corrupt.
	TamperAt int
	// Flip is the byte offset whose bits get flipped; clamped into the
	// payload (past the 4-byte checksum header).
	Flip int

	sent int
}

// Send corrupts the configured message and passes everything else
// through.
func (c *TamperConn) Send(msg []byte) error {
	c.sent++
	if c.sent == c.TamperAt && len(msg) > 0 {
		cp := make([]byte, len(msg))
		copy(cp, msg)
		idx := c.Flip
		if idx >= len(cp) {
			idx = len(cp) - 1
		}
		if idx < 4 && len(cp) > 4 {
			idx = 4
		}
		cp[idx] ^= 0xFF
		if len(cp) > 4 {
			binary.BigEndian.PutUint32(cp[:4], crc32.ChecksumIEEE(cp[4:]))
		}
		return c.Conn.Send(cp)
	}
	return c.Conn.Send(msg)
}

// ReplayConn wraps a transport and re-sends a captured message after the
// nth send, modeling a replay attacker with record/inject capability.
type ReplayConn struct {
	transport.Conn
	// ReplayAfter is the 1-based index of the message to capture and
	// immediately re-inject.
	ReplayAfter int

	sent int
}

// Send passes the message through and, at the configured point, sends it
// a second time.
func (c *ReplayConn) Send(msg []byte) error {
	c.sent++
	if err := c.Conn.Send(msg); err != nil {
		return err
	}
	if c.sent == c.ReplayAfter {
		return c.Conn.Send(msg)
	}
	return nil
}
