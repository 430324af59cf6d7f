// Package pipeline is the keyflow golden fixture. Its two leak*
// functions reconstruct the two real vulnerabilities fixed after PR 5 —
// the one-shot wire Cascade that published a full-rank parity system
// over the key bits, and the confirmation MAC keyed with the raw key
// block — as regression cases the analyzer must flag forever.
package pipeline

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/secure"
	"repro/internal/transport"
)

// quantizer stands in for the real pipeline quantizer stage; the keyflow
// policy table marks the first result of BobQuantize as raw key bits and
// the kept-index result as public wire data.
type quantizer struct{}

func (quantizer) BobQuantize(win []float64) ([]byte, []int) {
	return make([]byte, 8), []int{0, 1}
}

// leakCascadeTree is PR-5 bug #1: the one-shot wire Cascade published
// the full bisection parity tree as its syndrome. Every parity is an XOR
// of key bits, the tree has full rank over them, so encoding it hands a
// passive eavesdropper every key bit.
func leakCascadeTree(w io.Writer, win []float64) error {
	var q quantizer
	bits, _ := q.BobQuantize(win)
	tree := make([]byte, 0, 2*len(bits))
	for width := 1; width <= len(bits); width *= 2 {
		var parity byte
		for i, b := range bits {
			if i%width == 0 {
				parity = 0
			}
			parity ^= b
			if (i+1)%width == 0 {
				tree = append(tree, parity)
			}
		}
	}
	return gob.NewEncoder(w).Encode(tree) // want "keyflow"
}

// leakRawKeyMAC is PR-5 bug #2: a confirmation MAC keyed directly with
// the raw key block is an offline verification oracle for key guesses.
func leakRawKeyMAC(win []float64, salt []byte) []byte {
	var q quantizer
	bits, _ := q.BobQuantize(win)
	return secure.MAC(bits, salt) // want "keyflow"
}

// leakWireField hands key bits to the explicit wire codec's field
// encoder: the codec writes exactly what it is given, so the transport
// package is a wire sink like a gob encoder.
func leakWireField(win []float64) []byte {
	var q quantizer
	bits, _ := q.BobQuantize(win)
	b := transport.NewWire(0x564b4556, len(bits))
	return transport.SealWire(transport.AppendBytes(b, bits)) // want "keyflow"
}

// describeFailure leaks an annotated secret into error construction.
func describeFailure(
	//vklint:secret -- negotiated session key
	key []byte,
) error {
	return fmt.Errorf("session failed, key=%x", key) // want "keyflow"
}

// logBits formats whatever it is given — harmless on public data. A
// caller handing it key bits creates the flow, so the finding is lifted
// to that call site.
func logBits(tag string, bits []byte) {
	fmt.Printf("%s: %x\n", tag, bits)
}

func debugDump(win []float64) {
	var q quantizer
	bits, kept := q.BobQuantize(win)
	logBits("kept", intsToBytes(kept)) // kept indices are public wire data
	logBits("key", bits)               // want "keyflow"
}

func intsToBytes(xs []int) []byte {
	out := make([]byte, len(xs))
	for i, x := range xs {
		out[i] = byte(x)
	}
	return out
}

// labelKey publishes key-derived bytes as an obs series label.
func labelKey(rec obs.Recorder, win []float64) {
	var q quantizer
	bits, _ := q.BobQuantize(win)
	rec.Add(obs.Labeled("vk_key", "bits", string(bits)), 1) // want "keyflow"
}

// confirmMAC is the compliant confirmation path: the MAC is keyed by a
// salted one-way image of the block, and both secrets are wiped.
func confirmMAC(win []float64, salt []byte) []byte {
	var q quantizer
	bits, _ := q.BobQuantize(win)
	confirmKey := secure.BlockImage(bits, salt)
	mac := secure.MAC(confirmKey, salt)
	secure.Wipe(confirmKey)
	secure.Wipe(bits)
	return mac
}

// publishDigest publishes a SHA-256 digest of the key for auditing; the
// digest declassifies by policy.
func publishDigest(w io.Writer, win []float64) error {
	var q quantizer
	bits, _ := q.BobQuantize(win)
	sum := sha256.Sum256(bits)
	secure.Wipe(bits)
	return gob.NewEncoder(w).Encode(sum[:])
}

// countOnes publishes only an aggregate scalar statistic — comparisons
// and counters declassify (implicit flows are out of scope by design).
func countOnes(win []float64) int {
	var q quantizer
	bits, _ := q.BobQuantize(win)
	n := 0
	for _, b := range bits {
		if b == 1 {
			n++
		}
	}
	fmt.Printf("ones=%d\n", n)
	return n
}

var (
	_ = leakCascadeTree
	_ = leakRawKeyMAC
	_ = leakWireField
	_ = describeFailure
	_ = debugDump
	_ = labelKey
	_ = confirmMAC
	_ = publishDigest
	_ = countOnes
)
