package group

import (
	"errors"
	"math"

	"repro/internal/transport"
)

// The group wire format frames platoon control traffic in the same
// transport wire layout as the protocol layer's envelopes: a CRC32 over
// the rest, a magic word to distinguish it from the pairwise protocol's
// envelopes (both travel on the same conn), then the fields in
// declaration order under hard decode caps, so a hostile or corrupted
// frame is rejected before anything oversized is trusted. Frames that
// fail to decode are skipped by both ends' receive loops — on a shared
// medium a late protocol retransmit routinely lands between group
// frames, and the ARQ layer's copies/retransmits make skipping safe.

// frameMagic distinguishes group frames from protocol envelopes and
// server hellos at decode.
const frameMagic = 0x564b4750 // "VKGP"

// Frame kinds.
const (
	// kindJoin announces a member to the hub before its pairwise
	// establishment run: member ID and probing window count.
	kindJoin = uint8(iota + 1)
	// kindKey carries one sealed group-key envelope, hub → member.
	kindKey
	// kindAck confirms a received group key at an epoch, member → hub.
	kindAck
	// kindLeave announces a voluntary departure, member → hub.
	kindLeave
	// kindBye ends the platoon session, hub → member.
	kindBye
	// kindWelcome acknowledges a join, hub → member: the member keeps
	// retransmitting its join each tick until welcomed, so a lost join
	// frame cannot starve the establishment on a lossy medium.
	kindWelcome
)

// Group wire caps, mirroring the protocol layer's decode hygiene.
const (
	// MaxFrameBytes bounds one encoded group frame.
	MaxFrameBytes = 4096
	// MaxSealedBytes bounds the sealed envelope payload (a 20-byte
	// plaintext plus AES-GCM nonce and tag is ~48 bytes; the cap leaves
	// room for schedule growth without accepting megabyte blobs).
	MaxSealedBytes = 256
	// MaxFrameWindows is the wire cap on a join's announced window count.
	MaxFrameWindows = 1 << 12
)

// errNotGroupFrame flags a delivery that is not a well-formed group
// frame (most likely a pairwise protocol envelope sharing the conn);
// receive loops skip it.
var errNotGroupFrame = errors.New("group: not a group frame")

// frame is the single wire message all platoon control traffic uses;
// unused fields stay zero for a given kind.
//
//vklint:wire -- decoded from unauthenticated peers; treat field reads as hostile
type frame struct {
	Kind    uint8
	Member  uint64
	Epoch   uint32
	Windows int
	Sealed  []byte
}

// encodeFrame writes fr in the transport wire layout under frameMagic.
func encodeFrame(fr frame) []byte {
	b := transport.NewWire(frameMagic, 32+len(fr.Sealed))
	b = transport.AppendUvarint(b, uint64(fr.Kind))
	b = transport.AppendUvarint(b, fr.Member)
	b = transport.AppendUvarint(b, uint64(fr.Epoch))
	b = transport.AppendInt(b, fr.Windows)
	b = transport.AppendBytes(b, fr.Sealed)
	return transport.SealWire(b)
}

// decodeFrame parses and validates one group frame. Anything that is
// not well-formed within the caps reports errNotGroupFrame.
func decodeFrame(data []byte) (frame, error) {
	r, err := transport.OpenWire(data, frameMagic, MaxFrameBytes)
	if err != nil {
		return frame{}, errNotGroupFrame
	}
	kind, member, epoch := r.Uvarint(), r.Uvarint(), r.Uvarint()
	windows, sealed := r.Int(), r.Bytes(MaxSealedBytes)
	switch {
	case r.Finish() != nil:
		return frame{}, errNotGroupFrame
	case kind < uint64(kindJoin) || kind > uint64(kindWelcome):
		return frame{}, errNotGroupFrame
	case epoch > math.MaxUint32:
		return frame{}, errNotGroupFrame
	case windows < 0 || windows > MaxFrameWindows:
		return frame{}, errNotGroupFrame
	case uint8(kind) == kindJoin && windows < 1:
		return frame{}, errNotGroupFrame
	case uint8(kind) == kindKey && len(sealed) == 0:
		return frame{}, errNotGroupFrame
	}
	return frame{Kind: uint8(kind), Member: member, Epoch: uint32(epoch), Windows: windows, Sealed: sealed}, nil
}
