// Package secure provides the protocol-security building blocks the paper
// applies around reconciliation (Sec. IV-C): HMAC message authentication
// against man-in-the-middle modification, nonce/session-ID replay
// protection, and an AES-128-GCM channel for the data that the established
// key finally protects.
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// MACSize is the truncated HMAC-SHA256 tag length in bytes.
const MACSize = 16

// MAC computes the message authentication code the reconciliation
// messages carry: HMAC-SHA256 keyed with the sender's (Bloom-domain) key
// material, truncated to MACSize bytes.
func MAC(keyBits []byte, message []byte) []byte {
	key := packKeyed(keyBits)
	mac := hmac.New(sha256.New, key)
	mac.Write(message)
	tag := mac.Sum(nil)[:MACSize]
	Wipe(key)
	return tag
}

// VerifyMAC checks a MAC in constant time.
func VerifyMAC(keyBits, message, tag []byte) bool {
	return hmac.Equal(MAC(keyBits, message), tag)
}

// packKeyed packs 0/1 key bits eight to a byte, MSB first. Its output is
// key material: callers wipe it once it is dead.
func packKeyed(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b == 1 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}

// BlockImage derives the MAC-keying image of a raw key block: the bit
// expansion of HMAC-SHA256 keyed by the public session salt over the
// packed block. Schemes whose reconciliation works directly on raw bits
// hand this image — never the block itself — to the reconciliation-
// message MAC, so the key material behind the MAC is one-way in the
// block: combined with the public linear syndrome equations, a raw-bit
// MAC key would let an eavesdropper solve for the block, while the
// image forces a full guess-and-hash per candidate. Like all key
// images, the result must be wiped once the MAC is computed.
func BlockImage(block, salt []byte) []byte {
	packed := packKeyed(block)
	mac := hmac.New(sha256.New, salt)
	mac.Write(packed)
	Wipe(packed)
	sum := mac.Sum(nil)
	out := make([]byte, 8*len(sum))
	for i, b := range sum {
		for j := 0; j < 8; j++ {
			out[i*8+j] = b >> uint(7-j) & 1
		}
	}
	Wipe(sum)
	return out
}

// Wipe zeroes key material in place. Go never scrubs dead heap memory,
// so intermediate key buffers (Bloom-domain images, expired round keys,
// cached envelopes) must be wiped explicitly once they are dead — the
// invariant the vklint zeroize analyzer enforces.
func Wipe(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// WipeFloats zeroes a float64 buffer that carried key-derived signal
// (code vectors, soft values) the same way Wipe does for bytes.
func WipeFloats(f []float64) {
	for i := range f {
		f[i] = 0
	}
}

// ErrReplay reports a replayed or out-of-window message.
var ErrReplay = errors.New("secure: replayed message")

// ReplayGuard tracks (session, nonce) pairs to reject replays. Nonces must
// be strictly increasing within a session, the standard counter scheme the
// paper references.
type ReplayGuard struct {
	sessions map[string]uint64
}

// NewReplayGuard returns an empty guard.
func NewReplayGuard() *ReplayGuard {
	return &ReplayGuard{sessions: make(map[string]uint64)}
}

// Check admits the (session, nonce) pair if the nonce advances the
// session's counter, and rejects replays or reordered messages.
func (g *ReplayGuard) Check(sessionID string, nonce uint64) error {
	last, seen := g.sessions[sessionID]
	if seen && nonce <= last {
		return fmt.Errorf("%w: session %q nonce %d ≤ %d", ErrReplay, sessionID, nonce, last)
	}
	g.sessions[sessionID] = nonce
	return nil
}

// WindowGuard is a sliding-window replay guard (the RFC 4303 ESP
// anti-replay scheme). Unlike ReplayGuard's strict counter, it admits
// messages that arrive out of order — which retransmission and reordered
// links produce constantly — while still rejecting every duplicate nonce
// and everything older than the window. The protocol layer uses it so
// that a reordered-but-fresh envelope is usable instead of discarded.
type WindowGuard struct {
	window   uint64
	sessions map[string]*windowState
}

type windowState struct {
	max  uint64 // highest nonce admitted
	seen uint64 // bit i set ⇔ nonce (max - i) admitted
}

// NewWindowGuard returns a guard admitting out-of-order nonces up to
// window positions behind the newest; window is clamped to [1, 64].
func NewWindowGuard(window int) *WindowGuard {
	if window < 1 {
		window = 1
	}
	if window > 64 {
		window = 64
	}
	return &WindowGuard{window: uint64(window), sessions: make(map[string]*windowState)}
}

// Check admits the (session, nonce) pair if the nonce has not been seen
// and is within the replay window of the newest admitted nonce.
func (g *WindowGuard) Check(sessionID string, nonce uint64) error {
	st, ok := g.sessions[sessionID]
	if !ok {
		st = &windowState{}
		g.sessions[sessionID] = st
	}
	switch {
	case nonce > st.max:
		shift := nonce - st.max
		if shift >= 64 {
			st.seen = 0
		} else {
			st.seen <<= shift
		}
		st.seen |= 1
		st.max = nonce
		return nil
	default:
		diff := st.max - nonce
		if diff >= g.window {
			return fmt.Errorf("%w: session %q nonce %d below window (max %d)", ErrReplay, sessionID, nonce, st.max)
		}
		if st.seen&(1<<diff) != 0 {
			return fmt.Errorf("%w: session %q nonce %d already seen", ErrReplay, sessionID, nonce)
		}
		st.seen |= 1 << diff
		return nil
	}
}

// Channel is an AES-128-GCM secure channel over an established key.
type Channel struct {
	aead    cipher.AEAD
	sendSeq uint64
	recvSeq uint64
}

// NewChannel builds a channel from a 16-byte key (the output of privacy
// amplification).
func NewChannel(key []byte) (*Channel, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("secure: key must be 16 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("secure: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("secure: %w", err)
	}
	return &Channel{aead: aead}, nil
}

// Seal encrypts and authenticates plaintext with the next send sequence
// number as nonce; the sequence is prepended so Open can reconstruct it.
func (c *Channel) Seal(plaintext []byte) []byte {
	c.sendSeq++
	nonce := make([]byte, c.aead.NonceSize())
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], c.sendSeq)
	out := make([]byte, 8, 8+len(plaintext)+c.aead.Overhead())
	binary.BigEndian.PutUint64(out, c.sendSeq)
	return c.aead.Seal(out, nonce, plaintext, out[:8])
}

// Open authenticates and decrypts a message produced by the peer's Seal,
// enforcing strictly increasing sequence numbers (replay rejection).
func (c *Channel) Open(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < 8 {
		return nil, errors.New("secure: message too short")
	}
	seq := binary.BigEndian.Uint64(ciphertext[:8])
	if seq <= c.recvSeq {
		return nil, ErrReplay
	}
	nonce := make([]byte, c.aead.NonceSize())
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], seq)
	pt, err := c.aead.Open(nil, nonce, ciphertext[8:], ciphertext[:8])
	if err != nil {
		return nil, fmt.Errorf("secure: authentication failed: %w", err)
	}
	c.recvSeq = seq
	return pt, nil
}
