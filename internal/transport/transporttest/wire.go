package transporttest

import "repro/internal/transport"

// SealFields frames the concatenated field bytes under magic with a
// valid CRC, so a codec test can hand its decoder a message whose only
// defect is in the fields (or in the kind, given a foreign magic).
func SealFields(magic uint32, fields ...[]byte) []byte {
	b := transport.NewWire(magic, 0)
	for _, f := range fields {
		b = append(b, f...)
	}
	return transport.SealWire(b)
}
