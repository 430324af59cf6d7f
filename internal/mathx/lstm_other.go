//go:build !amd64

package mathx

func activate(tanh bool, dst, src []float64) { activateGeneric(tanh, dst, src) }

func addMatVecColMajor(wt []float64, rows int, x, out []float64) {
	addColMajorRows(wt, rows, 0, x, out)
}
