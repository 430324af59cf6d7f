// Package group extends Vehicle-Key from pairwise to group keys — the
// platoon/fleet setting the paper's related work (Liu et al., TMC'14)
// motivates. A hub (roadside unit or platoon leader) establishes a
// pairwise Vehicle-Key with every member over their individual radio
// channels, then distributes a fresh group key to each member through an
// AES-GCM channel keyed by that member's pairwise key.
//
// The package has two layers. This file is the key schedule: a
// mutex-guarded Hub that derives epoch-bound group keys and seals one
// envelope per member, and the member-side MemberState that enforces the monotone-epoch
// contract. platoon.go runs both roles as protocol.Node peers over
// transport endpoints, so a whole platoon session — N concurrent
// pairwise establishments, rekey fan-out, churn — works across
// tcp/mem/lora unmodified.
//
// Security inherits from the pairwise scheme: each member's channel is
// spatially decorrelated from every other's, so a compromised or
// departing member learns nothing about future group keys (the hub
// simply re-keys). Epochs are strictly monotone in both directions:
// the hub never reuses one, and a member rejects any envelope at or
// below its current epoch, so replayed envelopes cannot regress the
// group key. Superseded keys are wiped via secure.Wipe.
package group

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/secure"
)

// ErrHubClosed reports use of a closed hub.
var ErrHubClosed = errors.New("group: hub closed")

// ErrStaleEpoch reports an envelope whose epoch does not advance the
// member's schedule — a duplicate, an out-of-order delivery, or a
// deliberate replay.
var ErrStaleEpoch = errors.New("group: stale or replayed epoch")

// Member is one group participant as seen by the hub: an established
// pairwise key and the secure channel derived from it.
type Member struct {
	ID      string
	channel *secure.Channel
}

// Hub distributes and rotates group keys over established pairwise keys.
// All methods are safe for concurrent use; Rekey holds the hub lock for
// its whole derive+seal span, so every envelope batch covers exactly one
// consistent member set even under join/leave storms.
type Hub struct {
	mu      sync.Mutex
	members map[string]*Member
	epoch   uint32
	current []byte
	rec     obs.Recorder
	closed  bool
}

// HubOption configures NewHub.
type HubOption func(*Hub)

// WithRecorder routes the hub's vk_group_* metrics into r (default
// obs.Nop; the hub never constructs its own recorder).
func WithRecorder(r obs.Recorder) HubOption {
	return func(h *Hub) { h.rec = obs.OrNop(r) }
}

// NewHub returns an empty hub.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{members: make(map[string]*Member), rec: obs.Nop}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Join registers a member with its established 16-byte pairwise key
// (the output of the Vehicle-Key protocol with that member). The caller
// still owns pairwiseKey and should wipe it; the channel keeps only the
// derived cipher state.
func (h *Hub) Join(id string, pairwiseKey []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrHubClosed
	}
	if _, exists := h.members[id]; exists {
		return fmt.Errorf("group: member %q already joined", id)
	}
	ch, err := secure.NewChannel(pairwiseKey)
	if err != nil {
		return fmt.Errorf("group: member %q: %w", id, err)
	}
	h.members[id] = &Member{ID: id, channel: ch}
	h.rec.Set(obs.GroupMembers, float64(len(h.members)))
	return nil
}

// Leave removes a member. Callers should Rekey afterwards so the
// departed member cannot follow future traffic.
func (h *Hub) Leave(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.members[id]; !ok {
		return fmt.Errorf("group: member %q not joined", id)
	}
	delete(h.members, id)
	h.rec.Set(obs.GroupMembers, float64(len(h.members)))
	return nil
}

// Size returns the current member count.
func (h *Hub) Size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.members)
}

// Epoch returns the current key epoch (0 before the first Rekey).
func (h *Hub) Epoch() uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch
}

// GroupKey returns a copy of the current group key (nil before the
// first Rekey). The caller owns — and should wipe — the copy.
func (h *Hub) GroupKey() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.current == nil {
		return nil
	}
	key := make([]byte, len(h.current))
	copy(key, h.current)
	return key
}

// Close wipes the group key and rejects further use.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	secure.Wipe(h.current)
	h.current = nil
	h.closed = true
}

// Envelope is one member's sealed copy of the group key. Epoch is
// repeated in the clear for routing; the authoritative copy is inside
// the sealed payload, and members reject a mismatch.
type Envelope struct {
	MemberID string
	Epoch    uint32
	Sealed   []byte
}

// Rekey derives a fresh group key bound to the epoch and member set and
// returns one sealed envelope per member, in sorted member order.
//
// The derivation hashes the member IDs in sorted order, so the same
// entropy and member set always yield the same key regardless of join
// order or map iteration (the hash is schedule-independent). The
// superseded key is wiped before the new one is installed.
func (h *Hub) Rekey(entropy []byte) ([]Envelope, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrHubClosed
	}
	if len(h.members) == 0 {
		return nil, errors.New("group: no members")
	}
	ids := make([]string, 0, len(h.members))
	for id := range h.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	h.epoch++
	hash := sha256.New()
	hash.Write([]byte("vehicle-key/group/v1"))
	hash.Write(entropy)
	var eb [4]byte
	binary.BigEndian.PutUint32(eb[:], h.epoch)
	hash.Write(eb[:])
	for _, id := range ids {
		hash.Write([]byte(id))
	}
	sum := hash.Sum(nil)
	secure.Wipe(h.current)
	h.current = sum[:16:16]
	secure.Wipe(sum[16:])

	out := make([]Envelope, len(ids))
	payload := make([]byte, 4+16)
	copy(payload[:4], eb[:])
	copy(payload[4:], h.current)
	for i, id := range ids {
		out[i] = Envelope{MemberID: id, Epoch: h.epoch, Sealed: h.members[id].channel.Seal(payload)}
	}
	secure.Wipe(payload)
	h.rec.Add(obs.GroupRekeys, 1)
	h.rec.Set(obs.GroupEpoch, float64(h.epoch))
	return out, nil
}

// OpenEnvelope is the stateless member primitive: it unseals a
// group-key envelope with the member's pairwise channel and returns
// (epoch, groupKey). It performs no epoch-ordering checks — use
// MemberState, which wraps it with the monotone-epoch contract.
func OpenEnvelope(pairwise *secure.Channel, env Envelope) (uint32, []byte, error) {
	payload, err := pairwise.Open(env.Sealed)
	if err != nil {
		return 0, nil, fmt.Errorf("group: %w", err)
	}
	if len(payload) != 20 {
		secure.Wipe(payload)
		return 0, nil, errors.New("group: malformed envelope")
	}
	epoch := binary.BigEndian.Uint32(payload[:4])
	key := make([]byte, 16)
	copy(key, payload[4:])
	secure.Wipe(payload)
	return epoch, key, nil
}

// MemberState is a member's view of the group key schedule: the
// candidate pairwise channels from its establishment run, the last
// accepted epoch, and the current group key. It enforces the
// monotone-epoch contract — Accept rejects any envelope whose epoch
// does not strictly advance the schedule, so replayed or reordered
// envelopes cannot regress the key.
//
// Multiple candidate channels cover the protocol's round asymmetry:
// the hub seals under the first round it saw confirmed, which the
// member cannot predict, so it keeps a channel per confirmed round and
// pins whichever one opens the first envelope.
type MemberState struct {
	mu       sync.Mutex
	channels []*secure.Channel
	epoch    uint32
	key      []byte
}

// NewMemberState builds a member state over one or more candidate
// pairwise channels.
func NewMemberState(candidates ...*secure.Channel) (*MemberState, error) {
	if len(candidates) == 0 {
		return nil, errors.New("group: member state needs at least one pairwise channel")
	}
	return &MemberState{channels: candidates}, nil
}

// Accept opens env, advances the epoch, and returns a copy of the new
// group key (the caller owns and should wipe it). It fails with
// ErrStaleEpoch when env does not advance the current epoch, and with
// an opaque error when no candidate channel opens the envelope or the
// sealed epoch contradicts the cleartext one (a spliced header).
func (s *MemberState) Accept(env Envelope) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if env.Epoch <= s.epoch {
		return nil, fmt.Errorf("%w: epoch %d at or below current %d", ErrStaleEpoch, env.Epoch, s.epoch)
	}
	for i, ch := range s.channels {
		epoch, key, err := OpenEnvelope(ch, env)
		if err != nil {
			continue
		}
		if epoch != env.Epoch {
			secure.Wipe(key)
			return nil, errors.New("group: sealed epoch contradicts envelope header")
		}
		// First successful open pins the channel: later envelopes are
		// sealed under the same pairwise key, and the unpinned
		// candidates' cipher states hold no per-message secrets.
		s.channels = s.channels[i : i+1]
		secure.Wipe(s.key)
		s.key = key
		s.epoch = epoch
		out := make([]byte, len(key))
		copy(out, key)
		return out, nil
	}
	return nil, errors.New("group: envelope did not open under any pairwise channel")
}

// Epoch returns the last accepted epoch (0 before the first Accept).
func (s *MemberState) Epoch() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Key returns a copy of the current group key (nil before the first
// Accept). The caller owns — and should wipe — the copy.
func (s *MemberState) Key() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.key == nil {
		return nil
	}
	key := make([]byte, len(s.key))
	copy(key, s.key)
	return key
}

// Close wipes the group key.
func (s *MemberState) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	secure.Wipe(s.key)
	s.key = nil
}

// KeyDigest is a one-way fingerprint of a group key, safe to log or
// compare across members: the first 8 bytes of SHA-256 over a
// domain-separated hash of the key.
func KeyDigest(key []byte) string {
	if len(key) == 0 {
		return ""
	}
	h := sha256.New()
	h.Write([]byte("vehicle-key/group/digest"))
	h.Write(key)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}
