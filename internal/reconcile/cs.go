package reconcile

import (
	"errors"
	"math"

	"repro/internal/rng"
)

// CSConfig parameterizes the compressed-sensing reconciler used by the
// LoRa-Key and Gao et al. baselines (the paper fixes the random matrix at
// 20×64 for both).
type CSConfig struct {
	// Rows is M, the syndrome dimension; 0 means 20.
	Rows int
	// MatrixSeed seeds the shared sensing matrix; both parties derive the
	// same Φ from it publicly.
	MatrixSeed int64
}

// DefaultCSConfig matches the paper's comparison setup for 64-bit keys.
func DefaultCSConfig() CSConfig { return CSConfig{Rows: 20, MatrixSeed: 99} }

func (c *CSConfig) normalize() {
	if c.Rows <= 0 {
		c.Rows = 20
	}
}

// istaIterations is the iteration budget of the ℓ1 decoder, a typical
// basis-pursuit operating point.
const istaIterations = 200

// CSISTA reconciles Alice's key against Bob's with syndrome-based
// compressed sensing, decoding the sparse mismatch vector with iterative
// soft-thresholding (ISTA), the ℓ1-minimization decode that LoRa-Key's
// CS reconciliation performs. Its hundreds of full matrix-vector
// iterations are the computation cost the paper's Fig. 11 reports the
// autoencoder cutting by roughly an order of magnitude.
//
// The exchange is one message: Bob transmits the public syndrome
// y = Φ·k_B (CSEncode) and Alice decodes the sparse mismatch from her
// own projection (CSISTACorrect). CSISTA runs exactly those two halves.
func CSISTA(keyAlice, keyBob []byte, cfg CSConfig) (Outcome, error) {
	if len(keyAlice) != len(keyBob) {
		return Outcome{}, errors.New("reconcile: key length mismatch")
	}
	cfg.normalize()
	alice, err := CSISTACorrect(keyAlice, CSEncode(keyBob, cfg), cfg)
	if err != nil {
		return Outcome{}, err
	}
	m, n := cfg.Rows, len(keyAlice)
	return Outcome{
		AliceKey:     alice,
		BobKey:       keyBob,
		Messages:     1,
		SyndromeBits: m * 64,
		// Both projections, then per iteration Φx and Φᵀr plus the shrink.
		ComputeOps:    2*m*n + istaIterations*(2*m*n+n),
		LeakedKeyBits: m,
		Method:        "cs-ista",
	}, nil
}

// CSEncode is Bob's half: the public syndrome y = Φ·k_B over the shared
// sensing matrix derived from cfg.MatrixSeed.
func CSEncode(keyBob []byte, cfg CSConfig) []float64 {
	cfg.normalize()
	n := len(keyBob)
	phi := sensingMatrixCached(cfg.Rows, n, cfg.MatrixSeed)
	return matVecBits(phi, keyBob, cfg.Rows, n)
}

// CSISTACorrect is Alice's half: she forms Φ·k_A − y = Φ·e and recovers
// the sparse mismatch e ∈ {−1,0,+1}ⁿ with ISTA, flipping the recovered
// positions in a copy of her key. A syndrome whose length does not
// match cfg.Rows (possible with a corrupted or hostile envelope) is
// rejected with an error, never a panic.
func CSISTACorrect(keyAlice []byte, yBob []float64, cfg CSConfig) ([]byte, error) {
	cfg.normalize()
	m := cfg.Rows
	if len(yBob) != m {
		return nil, errors.New("reconcile: cs syndrome length mismatch")
	}
	n := len(keyAlice)
	phi := sensingMatrixCached(m, n, cfg.MatrixSeed)
	b := matVecBits(phi, keyAlice, m, n)
	for i := range b {
		b[i] -= yBob[i]
	}

	// ISTA: x ← shrink(x + (1/L)·Φᵀ(b − Φx), λ/L). The Lipschitz constant
	// of ΦᵀΦ for a ±1/√M Bernoulli matrix is ≈ N/M; step 1/L.
	x := make([]float64, n)
	l := float64(n) / float64(m)
	step := 1 / l
	lambda := 0.2
	resid := make([]float64, m)
	grad := make([]float64, n)
	for it := 0; it < istaIterations; it++ {
		for r := 0; r < m; r++ {
			s := b[r]
			row := phi[r*n : (r+1)*n]
			for c := 0; c < n; c++ {
				s -= row[c] * x[c]
			}
			resid[r] = s
		}
		for c := 0; c < n; c++ {
			var s float64
			for r := 0; r < m; r++ {
				s += phi[r*n+c] * resid[r]
			}
			grad[c] = s
		}
		for c := 0; c < n; c++ {
			v := x[c] + step*grad[c]
			// Soft threshold.
			switch {
			case v > lambda*step:
				v -= lambda * step
			case v < -lambda*step:
				v += lambda * step
			default:
				v = 0
			}
			x[c] = v
		}
	}

	alice := make([]byte, n)
	copy(alice, keyAlice)
	for c := 0; c < n; c++ {
		// e_c ≈ ±1 means Alice's bit c differs from Bob's.
		if math.Abs(x[c]) > 0.5 {
			alice[c] ^= 1
		}
	}
	return alice, nil
}

// sensingMatrix derives the shared ±1/√M Bernoulli matrix from the seed.
func sensingMatrix(m, n int, seed int64) []float64 {
	src := rng.New(seed)
	phi := make([]float64, m*n)
	scale := 1 / math.Sqrt(float64(m))
	for i := range phi {
		if src.Bernoulli(0.5) {
			phi[i] = scale
		} else {
			phi[i] = -scale
		}
	}
	return phi
}

func matVecBits(phi []float64, bits []byte, m, n int) []float64 {
	out := make([]float64, m)
	for r := 0; r < m; r++ {
		row := phi[r*n : (r+1)*n]
		var s float64
		for c, b := range bits {
			if b == 1 {
				s += row[c]
			}
		}
		out[r] = s
	}
	return out
}
