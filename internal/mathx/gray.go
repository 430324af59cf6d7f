package mathx

// GrayEncode converts a binary index to its reflected Gray code. Multi-bit
// quantizers emit Gray-coded symbols so that a one-level quantization error
// flips exactly one key bit (Jana et al., MobiCom'09).
func GrayEncode(n uint64) uint64 { return n ^ (n >> 1) }

// GrayDecode inverts GrayEncode.
func GrayDecode(g uint64) uint64 {
	n := g
	for shift := uint(1); shift < 64; shift <<= 1 {
		n ^= n >> shift
	}
	return n
}
