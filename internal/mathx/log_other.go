//go:build !amd64

package mathx

func log10s(x, out []float64) { log10sGeneric(x, out) }
