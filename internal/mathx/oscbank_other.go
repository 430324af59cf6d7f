//go:build !amd64

package mathx

func oscBank(omega, phase []float64, scale float64, ts, out []float64) {
	oscBankGeneric(omega, phase, scale, ts, out)
}
