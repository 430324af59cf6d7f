// Order-preserving dense kernels for the batched inference and training
// paths.
//
// Everything in this file is stdlib-only float64 arithmetic with one
// non-negotiable contract: for every output element the sequence of
// floating-point operations — the seed value, the order of the
// multiply-adds — is EXACTLY the sequence the per-step reference loops
// (kept as test oracles in internal/nn and internal/reconcile) perform.
// Go's float64 is strict IEEE 754 (no reassociation, no
// extended-precision accumulation on amd64/arm64), so preserving the op
// order makes the batched results byte-identical to the reference, not
// merely close. The equivalence battery in gemm_test.go and
// internal/nn/infer_test.go asserts this with math.Float64bits.
//
// Blocking therefore tiles only the OUTPUT dimensions (rows of A,
// rows of B): elements are computed whole, never split into partial
// sums, so tiling changes cache behaviour but not a single rounding.
package mathx

// gemmBlock is the output-tile edge. 64×64 float64 tiles of A-rows and
// B-rows fit comfortably in L1/L2 for the dimensions the pipeline uses
// (K ≤ a few hundred).
const gemmBlock = 64

// MatMulTBias computes out = A·Bᵀ with a bias seed:
//
//	out[i*n+j] = bias[j] + Σ_{c=0..k-1} a[i*k+c] * b[j*k+c]
//
// with c strictly ascending and the accumulator seeded at bias[j] —
// the exact op order of the reference loops `sum := bias[j]; for c
// { sum += w[c]*x[c] }`. A is m×k row-major, B is n×k row-major (so
// B's rows are the weight rows of a Dense/LSTM gate), out is m×n
// row-major. out must not alias a, b, or bias.
func MatMulTBias(a []float64, m, k int, b []float64, n int, bias, out []float64) {
	checkGEMM(a, m, k, b, n, out)
	if len(bias) < n {
		panic("mathx: MatMulTBias bias shorter than n")
	}
	if k == 1 {
		// One term per element, as in every LSTM input projection: the
		// same product and the same add onto the bias seed, in one pass.
		b, bias = b[:n], bias[:n]
		for i, av := range a[:m] {
			or := out[i*n : i*n+n]
			for j, bv := range b {
				or[j] = bias[j] + bv*av
			}
		}
		return
	}
	if n < 4 {
		matMulTBiasNarrow(a, m, k, b, n, bias, out)
		return
	}
	for i0 := 0; i0 < m; i0 += gemmBlock {
		iMax := min(i0+gemmBlock, m)
		for j0 := 0; j0 < n; j0 += gemmBlock {
			jMax := min(j0+gemmBlock, n)
			for i := i0; i < iMax; i++ {
				ar := a[i*k : i*k+k]
				or := out[i*n : i*n+n]
				// Four output elements at a time, one accumulator each:
				// the four sums are independent, so their adds overlap
				// in the pipeline, and each still takes its terms in
				// ascending c.
				j := j0
				for ; j+4 <= jMax; j += 4 {
					b0 := b[j*k:][:len(ar)]
					b1 := b[(j+1)*k:][:len(ar)]
					b2 := b[(j+2)*k:][:len(ar)]
					b3 := b[(j+3)*k:][:len(ar)]
					s0, s1, s2, s3 := bias[j], bias[j+1], bias[j+2], bias[j+3]
					for c, av := range ar {
						s0 += b0[c] * av
						s1 += b1[c] * av
						s2 += b2[c] * av
						s3 += b3[c] * av
					}
					or[j], or[j+1], or[j+2], or[j+3] = s0, s1, s2, s3
				}
				for ; j < jMax; j++ {
					br := b[j*k:][:len(ar)]
					sum := bias[j]
					for c, av := range ar {
						sum += br[c] * av
					}
					or[j] = sum
				}
			}
		}
	}
}

// matMulTBiasNarrow is MatMulTBias for n < 4 B-rows (the predictor
// heads have one or two), too few for four accumulators along a row of
// out. It takes four A-rows per pass instead: four independent sums
// down a column of out, each seeded at bias[j] and adding its terms in
// ascending c.
func matMulTBiasNarrow(a []float64, m, k int, b []float64, n int, bias, out []float64) {
	for j := 0; j < n; j++ {
		br := b[j*k : j*k+k]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := a[i*k:][:len(br)]
			a1 := a[(i+1)*k:][:len(br)]
			a2 := a[(i+2)*k:][:len(br)]
			a3 := a[(i+3)*k:][:len(br)]
			s0, s1, s2, s3 := bias[j], bias[j], bias[j], bias[j]
			for c, bv := range br {
				s0 += bv * a0[c]
				s1 += bv * a1[c]
				s2 += bv * a2[c]
				s3 += bv * a3[c]
			}
			out[i*n+j], out[(i+1)*n+j], out[(i+2)*n+j], out[(i+3)*n+j] = s0, s1, s2, s3
		}
		for ; i < m; i++ {
			ar := a[i*k:][:len(br)]
			sum := bias[j]
			for c, bv := range br {
				sum += bv * ar[c]
			}
			out[i*n+j] = sum
		}
	}
}

// MatMulT is MatMulTBias with a zero seed: out[i*n+j] = Σ_c a[i*k+c]*b[j*k+c].
func MatMulT(a []float64, m, k int, b []float64, n int, out []float64) {
	checkGEMM(a, m, k, b, n, out)
	for i0 := 0; i0 < m; i0 += gemmBlock {
		iMax := min(i0+gemmBlock, m)
		for j0 := 0; j0 < n; j0 += gemmBlock {
			jMax := min(j0+gemmBlock, n)
			for i := i0; i < iMax; i++ {
				ar := a[i*k : i*k+k]
				or := out[i*n : i*n+n]
				for j := j0; j < jMax; j++ {
					br := b[j*k : j*k+k]
					sum := 0.0
					for c, av := range ar {
						sum += br[c] * av
					}
					or[j] = sum
				}
			}
		}
	}
}

// MatVec computes out[r] = Σ_{c ascending} w[r*cols+c] * x[c] for the
// rows×cols row-major matrix w. out must not alias w or x.
func MatVec(w []float64, rows, cols int, x, out []float64) {
	checkMatVec(w, rows, cols, x, cols, out, rows)
	for r := 0; r < rows; r++ {
		row := w[r*cols : r*cols+cols]
		sum := 0.0
		for c, wv := range row {
			sum += wv * x[c]
		}
		out[r] = sum
	}
}

// MatVecT computes the transposed product out[c] = Σ_{r ascending}
// w[r*cols+c] * x[r], streaming w row-major (one pass, cache-friendly)
// instead of striding down columns. Per output element the terms are
// still added in ascending r — identical to the column-dot reference.
// out is zeroed first and must not alias w or x.
//
// Four rows share one pass over out, adding their terms to each
// element in ascending r.
func MatVecT(w []float64, rows, cols int, x, out []float64) {
	checkMatVec(w, rows, cols, x, rows, out, cols)
	out = out[:cols]
	clear(out)
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0, x1, x2, x3 := x[r], x[r+1], x[r+2], x[r+3]
		w0 := w[r*cols:][:len(out)]
		w1 := w[(r+1)*cols:][:len(out)]
		w2 := w[(r+2)*cols:][:len(out)]
		w3 := w[(r+3)*cols:][:len(out)]
		for c, v := range out {
			v += w0[c] * x0
			v += w1[c] * x1
			v += w2[c] * x2
			v += w3[c] * x3
			out[c] = v
		}
	}
	for ; r < rows; r++ {
		row := w[r*cols:][:len(out)]
		xr := x[r]
		for c, wv := range row {
			out[c] += wv * xr
		}
	}
}

func checkGEMM(a []float64, m, k int, b []float64, n int, out []float64) {
	if m < 0 || k < 0 || n < 0 {
		panic("mathx: negative GEMM dimension")
	}
	if len(a) < m*k {
		panic("mathx: GEMM A shorter than m*k")
	}
	if len(b) < n*k {
		panic("mathx: GEMM B shorter than n*k")
	}
	if len(out) < m*n {
		panic("mathx: GEMM out shorter than m*n")
	}
}

func checkMatVec(w []float64, rows, cols int, x []float64, xLen int, out []float64, outLen int) {
	if rows < 0 || cols < 0 {
		panic("mathx: negative MatVec dimension")
	}
	if len(w) < rows*cols {
		panic("mathx: MatVec matrix shorter than rows*cols")
	}
	if len(x) < xLen {
		panic("mathx: MatVec input vector too short")
	}
	if len(out) < outLen {
		panic("mathx: MatVec output vector too short")
	}
}
