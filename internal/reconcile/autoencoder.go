package reconcile

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/secure"
)

// AEConfig sizes the autoencoder reconciler.
type AEConfig struct {
	// KeyBits is the key length N the reconciler operates on.
	KeyBits int
	// CodeDim is M, the width of the transmitted code vector y_Bob
	// (paper: 32-unit encoder layers).
	CodeDim int
	// DecoderUnits is the hidden width of the decoder's three fully
	// connected hidden layers — the quantity swept in Fig. 11
	// (AE-16 … AE-128; the paper selects AE-64).
	DecoderUnits int
	// MaxMismatch is the largest bit-disagreement fraction the model is
	// trained to correct.
	MaxMismatch float64
	// EncoderSeed keys the fixed encoder projection; both parties derive
	// it from public session context.
	EncoderSeed int64
}

// normalize fills unset fields with the selected configuration: 128-bit
// keys, 32-dimensional code, 16-unit shared decoder, trained up to 15 %
// mismatch. Note on sizing: the paper selects AE-64 for its *dense*
// decoder; our decoder shares weights across bit positions (see AE), so
// far fewer units per position reach the same accuracy, and 16 units is
// the agreement/cost balance point that AE-64 plays in the paper.
func (c *AEConfig) normalize() {
	if c.KeyBits <= 0 {
		c.KeyBits = 128
	}
	if c.CodeDim <= 0 {
		c.CodeDim = 32
	}
	if c.DecoderUnits <= 0 {
		c.DecoderUnits = 16
	}
	if c.MaxMismatch <= 0 || c.MaxMismatch >= 0.5 {
		c.MaxMismatch = 0.15
	}
	if c.EncoderSeed == 0 {
		c.EncoderSeed = 424242
	}
}

// AE is the paper's two-input autoencoder reconciler (Fig. 7). Bob runs
// only the blue path: Bloom filter → pre-trained encoder → code vector
// y_Bob, which he transmits. Alice encodes her own Bloom-filtered key,
// subtracts, and decodes the difference into the estimated mismatch
// pattern Δx, which she XORs onto her key.
//
// Implementation notes relative to the paper's sketch:
//
//   - The paper describes the encoders as *pre-trained*; here the shared
//     encoder is a fixed random linear projection (the classical CS
//     sensing structure the design is motivated by [24]).
//   - The decoder g keeps the paper's three fully connected hidden layers
//     but is applied position-wise with shared weights (a 1×1
//     convolution) over per-position features [|Wᵀh|_j, k̂], where
//     k̂ = ‖h‖²/4 estimates the mismatch count. The reconciliation task
//     is permutation-equivariant over bit positions, so weight sharing is
//     the correct inductive bias and is what lets a compact decoder reach
//     the matched-filter bound.
type AE struct {
	Cfg AEConfig

	w   []float64 // CodeDim×KeyBits fixed encoder projection, row-major
	wt  []float64 // the same projection column-major (KeyBits×CodeDim)
	dec *nn.MLP   // shared per-position decoder: [|bp_j|, k̂] → P(flip)

	// Scratch buffers, reused across calls. One System is routinely
	// shared between an Alice and a Bob protocol node in the same
	// process (the loopback tests and benches do exactly that), so
	// the two wire halves can race on these buffers — mu serializes
	// them. Training and Save/Load stay single-goroutine by contract.
	// Every one of them holds key-derived values between calls.
	mu       sync.Mutex
	scPM     []float64 // ±1-mapped key for the encoder product
	scY      []float64 // Alice's code vector (correct) or Bob's (trainStep)
	scYA     []float64 // Alice's code vector (trainStep)
	scH      []float64 // code difference h
	scBP     []float64 // backprojection output
	scFeat   []float64 // decoder input, feature-major (2×positions)
	scScores []float64 // per-position flip scores (correct)
	scCand   []int     // candidate positions (correct)
	scDout   []float64 // decoder output gradients (training)
}

// growF returns *buf resized to n, reusing its backing array when
// large enough. Contents are unspecified — callers overwrite.
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// NewAE builds an untrained reconciler. Callers normally use TrainAE.
func NewAE(cfg AEConfig, src *rng.Source) *AE {
	cfg.normalize()
	ae := &AE{Cfg: cfg}
	// Shared fixed projection, ±1/√M Bernoulli like the CS baselines.
	enc := rng.New(cfg.EncoderSeed)
	ae.w = make([]float64, cfg.CodeDim*cfg.KeyBits)
	scale := 1 / math.Sqrt(float64(cfg.CodeDim))
	for i := range ae.w {
		if enc.Bernoulli(0.5) {
			ae.w[i] = scale
		} else {
			ae.w[i] = -scale
		}
	}
	ae.wt = make([]float64, len(ae.w))
	for r := 0; r < cfg.CodeDim; r++ {
		for c := 0; c < cfg.KeyBits; c++ {
			ae.wt[c*cfg.CodeDim+r] = ae.w[r*cfg.KeyBits+c]
		}
	}
	spec := []nn.MLPSpec{
		{Out: cfg.DecoderUnits, Act: nn.ReLU},
		{Out: cfg.DecoderUnits, Act: nn.ReLU},
		{Out: 1, Act: nn.Sigmoid},
	}
	ae.dec = nn.NewMLP("ae.dec", 2, spec, src)
	return ae
}

// decodeRounds is the fixed number of decode/cancel rounds correct runs;
// a small constant keeps the cost an order of magnitude below iterative
// CS while interference cancellation recovers most of its accuracy.
const decodeRounds = 3

// Params returns the learnable tensors (the decoder's; the encoder
// projection is fixed).
func (ae *AE) Params() nn.Params { return ae.dec.Params() }

// Save serializes the trained decoder weights.
func (ae *AE) Save(w io.Writer) error { return nn.SaveParams(w, ae.Params()) }

// Load restores weights saved by Save into a model built with the same
// AEConfig.
func (ae *AE) Load(r io.Reader) error { return nn.LoadParams(r, ae.Params()) }

// Clone returns an independent deep copy of the reconciler: same fixed
// encoder projection (it is derived from Cfg.EncoderSeed), decoder
// weights copied through the Save/Load round-trip so the two copies
// share no parameter storage. The initialization seed is irrelevant —
// Load overwrites every trained parameter.
func (ae *AE) Clone() *AE {
	out := NewAE(ae.Cfg, rng.New(1))
	var buf bytes.Buffer
	if err := ae.Save(&buf); err != nil {
		panic("reconcile: AE clone save: " + err.Error())
	}
	if err := out.Load(&buf); err != nil {
		panic("reconcile: AE clone load: " + err.Error())
	}
	return out
}

// encode projects a ±1-mapped key through the fixed encoder into out
// (CodeDim values) and returns it: the bits map to a ±1 vector once, and
// the column-major projection adds its terms to a zeroed out, the code
// rows in vector lanes and each row's terms in ascending c. row[c]*(+1)
// and row[c]*(−1) are exact in IEEE float, and s−row[c] equals
// s+(−row[c]) bit-for-bit, so the result is byte-identical to the
// branchy scalar loop (equivalence_test.go keeps it as the oracle).
// bits must hold at least KeyBits bits.
func (ae *AE) encode(bits []byte, out []float64) []float64 {
	n, m := ae.Cfg.KeyBits, ae.Cfg.CodeDim
	pm := growF(&ae.scPM, n)
	for c := 0; c < n; c++ {
		if bits[c] == 1 {
			pm[c] = 1
		} else {
			pm[c] = -1
		}
	}
	out = out[:m]
	clear(out)
	mathx.AddMatVecColMajor(ae.wt, m, n, pm, out)
	return out
}

// backproject computes Wᵀh, the decoder's matched-filter first stage.
// The row-major W is Wᵀ stored column-major, so the positions run in
// vector lanes and each position's terms are added in ascending r onto
// a zero seed, byte-identical to the column-strided loop. The returned
// slice is scratch, valid until the next backproject call.
func (ae *AE) backproject(h []float64) []float64 {
	out := growF(&ae.scBP, ae.Cfg.KeyBits)
	clear(out)
	mathx.AddMatVecColMajor(ae.w, ae.Cfg.KeyBits, ae.Cfg.CodeDim, h, out)
	return out
}

// features derives the per-position decoder inputs from the code
// difference h: |Wᵀh|_j and the shared mismatch-count estimate
// k̂ = ‖h‖²/4 (encoder columns are near-orthonormal and a flip changes the
// ±1-mapped key by magnitude 2).
func (ae *AE) features(h []float64) (absBP []float64, kHat float64) {
	bp := ae.backproject(h)
	var hNorm float64
	for _, v := range h {
		hNorm += v * v
	}
	for i, v := range bp {
		bp[i] = math.Abs(v)
	}
	return bp, hNorm / 4
}

// EncodeRaw compresses a KeyBits-bit key into a code vector with no
// Bloom transform in front. BobEncode runs it on the Bloom-filtered
// block; on its own it serves the Fig. 9 bloom ablation, which measures
// exactly the linkage the transform is there to destroy.
func (ae *AE) EncodeRaw(bits []byte) []float64 {
	if len(bits) != ae.Cfg.KeyBits {
		panic("reconcile: key length mismatch")
	}
	ae.mu.Lock()
	defer ae.mu.Unlock()
	return ae.encode(bits, make([]float64, ae.Cfg.CodeDim))
}

// BobEncode is Bob's wire half: his block passes through the session's
// salted Bloom filter and the encoder, giving the code vector y_Bob he
// transmits. image is his Bloom-domain key, the MAC-keying image the
// caller must wipe.
func (ae *AE) BobEncode(keyBob, salt []byte) (code []float64, image []byte, err error) {
	if len(keyBob) != ae.Cfg.KeyBits {
		return nil, nil, fmt.Errorf("reconcile: block length %d, want %d", len(keyBob), ae.Cfg.KeyBits)
	}
	image = bloomFor(len(keyBob), salt).Transform(keyBob)
	return ae.EncodeRaw(image), image, nil
}

// AliceCorrect is Alice's wire half: she filters her block under the
// same salt, decodes it against Bob's code vector and maps the result
// back. final is her corrected block and image its Bloom-domain form,
// the MAC-verification image the caller must wipe. A block or code of
// the wrong length (a corrupted or hostile envelope) is an error, never
// a panic.
func (ae *AE) AliceCorrect(keyAlice []byte, code []float64, salt []byte) (final, image []byte, err error) {
	if len(keyAlice) != ae.Cfg.KeyBits {
		return nil, nil, fmt.Errorf("reconcile: block length %d, want %d", len(keyAlice), ae.Cfg.KeyBits)
	}
	if len(code) != ae.Cfg.CodeDim {
		return nil, nil, fmt.Errorf("reconcile: code length %d, want %d", len(code), ae.Cfg.CodeDim)
	}
	bf := bloomFor(len(keyAlice), salt)
	bloomKey := bf.Transform(keyAlice)
	image = ae.correct(bloomKey, code)
	secure.Wipe(bloomKey)
	return bf.Inverse(image), image, nil
}

// correct decodes Alice's Bloom-filtered key against Bob's code vector
// and returns her corrected key, still in the Bloom-filtered domain.
//
// Decoding runs a fixed small number of rounds: each round scores
// candidate positions with the shared decoder, flips the most confident
// ones, and cancels their contribution from the code difference h, so the
// next round sees less interference. After the first round only the
// positions that were plausible candidates (largest |Wᵀh|) are rescored.
func (ae *AE) correct(bloomKeyAlice []byte, yBob []float64) []byte {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	n := ae.Cfg.KeyBits
	out := make([]byte, n)
	copy(out, bloomKeyAlice)
	yAlice := ae.encode(out, growF(&ae.scY, ae.Cfg.CodeDim))
	h := growF(&ae.scH, len(yBob))
	for i := range h {
		h[i] = yBob[i] - yAlice[i]
	}

	// Refuse to decode when the estimated mismatch count exceeds the
	// trained envelope: beyond it the decoder would mostly flip wrong
	// bits. This also denies an eavesdropper any use of an intercepted
	// code vector — her key disagrees with Bob's in ≈ half the positions,
	// far past the envelope, so the syndrome corrects nothing for her
	// (the paper's Fig. 15a observation).
	maxK := ae.Cfg.MaxMismatch * float64(n) * 1.2
	absBP, kHat := ae.features(h)
	if kHat > maxK {
		return out
	}

	scores := growF(&ae.scScores, n)
	if cap(ae.scCand) < n {
		ae.scCand = make([]int, 0, n)
	}
	candidates := ae.scCand[:0] // never longer than n, so never reallocated
	for round := 0; round < decodeRounds; round++ {
		if round > 0 {
			absBP, kHat = ae.features(h)
		}
		kRemain := int(kHat + 0.5)
		if kRemain <= 0 {
			break
		}
		// Round 0 considers every position; later rounds only the
		// plausible ones (4k̂+8 largest |Wᵀh|).
		candidates = candidates[:0]
		if round == 0 {
			for j := 0; j < n; j++ {
				candidates = append(candidates, j)
			}
		} else {
			limit := 4*kRemain + 8
			if limit > n {
				limit = n
			}
			candidates = topIndices(absBP, limit, candidates)
		}
		for i := range scores {
			scores[i] = -1
		}
		// One batched decoder pass over all candidates (byte-identical
		// per row to scoring each position on its own). The input is
		// feature-major: |Wᵀh| at the candidates, then k̂ repeated.
		rows := len(candidates)
		feat := growF(&ae.scFeat, 2*rows)
		for i, j := range candidates {
			feat[i] = absBP[j]
		}
		for i := rows; i < 2*rows; i++ {
			feat[i] = kHat
		}
		batched := ae.dec.Forward(feat, rows)
		for i, j := range candidates {
			scores[j] = batched[i]
		}
		// Flip the most confident candidates this round; leave the
		// uncertain tail for the cleaner next round. The final round
		// flips everything still estimated mismatched.
		quota := (kRemain + 1) / 2
		if round == decodeRounds-1 {
			quota = kRemain
		}
		flipped := 0
		for flipped < quota {
			best, bestScore := -1, 0.3 // confidence floor
			for j, s := range scores {
				if s > bestScore {
					bestScore, best = s, j
				}
			}
			if best < 0 {
				break
			}
			scores[best] = -1
			ae.cancelFlip(out, best, h)
			flipped++
		}
		if flipped == 0 {
			break
		}
	}
	return out
}

// cancelFlip flips Alice's working bit j and removes its contribution
// from the code difference h (the encode of the ±1-mapped key changes by
// ±2·w_col_j, so h moves the opposite way).
func (ae *AE) cancelFlip(key []byte, j int, h []float64) {
	m := ae.Cfg.CodeDim
	var d float64 = 2
	if key[j] == 1 {
		d = -2 // bit 1→0: Alice's encoding loses +w_j twice
	}
	key[j] ^= 1
	for r, w := range ae.wt[j*m : j*m+m] {
		h[r] -= d * w
	}
}

// topIndices appends to dst the indices of the k largest values of xs
// above −1, largest first and, among equal values, lowest index first:
// the order in which repeatedly picking the first largest unpicked value
// takes them. One pass keeps them by insertion: a later index goes
// after every kept one of equal value, so ties keep the lowest indices.
func topIndices(xs []float64, k int, dst []int) []int {
	if k <= 0 {
		return dst
	}
	base := len(dst)
	for i, v := range xs {
		if !(v > -1) { // also refuses NaN, which never compares larger
			continue
		}
		if len(dst)-base == k {
			if !(v > xs[dst[len(dst)-1]]) {
				continue
			}
			dst = dst[:len(dst)-1]
		}
		j := len(dst)
		dst = append(dst, i)
		for ; j > base && xs[dst[j-1]] < v; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = i
	}
	return dst
}

// TrainAE trains a reconciler on synthetic key pairs: Bob's key is
// uniform, Alice's differs in a random fraction of positions up to
// MaxMismatch (mirroring the paper, which trains on the mismatch
// distribution its quantizer produces). Returns the trained model.
func TrainAE(cfg AEConfig, epochs, samplesPerEpoch int, src *rng.Source) *AE {
	cfg.normalize()
	ae := NewAE(cfg, src.Derive("init"))
	opt := nn.NewAdam(2e-3)
	params := ae.Params()
	data := src.Derive("data")
	for e := 0; e < epochs; e++ {
		// Step-decay learning rate: thirds at 2e-3 / 1e-3 / 4e-4.
		switch {
		case e >= 2*epochs/3:
			opt.LR = 4e-4
		case e >= epochs/3:
			opt.LR = 1e-3
		}
		for s := 0; s < samplesPerEpoch; s++ {
			kb := data.Bits(cfg.KeyBits)
			ka := make([]byte, cfg.KeyBits)
			copy(ka, kb)
			rate := data.Uniform(0, cfg.MaxMismatch)
			for i := range ka {
				if data.Bernoulli(rate) {
					ka[i] ^= 1
				}
			}
			ae.trainStep(ka, kb)
			params.ClipGrad(5)
			opt.Step(params)
		}
	}
	return ae
}

// trainStep runs one decoder forward and backward pass over all bit
// positions as a batch, layer by layer. Each gradient element receives
// its per-position terms in ascending position order, so the gradients
// are bit-identical to one pass per position (equivalence_test.go).
func (ae *AE) trainStep(ka, kb []byte) float64 {
	n := ae.Cfg.KeyBits
	yB := ae.encode(kb, growF(&ae.scY, ae.Cfg.CodeDim))
	yA := ae.encode(ka, growF(&ae.scYA, ae.Cfg.CodeDim))
	h := growF(&ae.scH, len(yB))
	for i := range h {
		h[i] = yB[i] - yA[i]
	}
	absBP, kHat := ae.features(h)
	feat := growF(&ae.scFeat, 2*n)
	copy(feat, absBP)
	for j := n; j < 2*n; j++ {
		feat[j] = kHat
	}
	ps := ae.dec.Forward(feat, n)
	// Positive-weighted binary cross entropy: mismatch positions are a
	// small minority of the targets and an unweighted loss lets the
	// decoder collapse to predicting all-zeros.
	const posWeight = 4.0
	const eps = 1e-9
	var loss float64
	dout := growF(&ae.scDout, n)
	for j, p := range ps {
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		if ka[j] != kb[j] {
			loss += -posWeight * math.Log(p)
			dout[j] = -posWeight / p
		} else {
			loss += -math.Log(1 - p)
			dout[j] = 1 / (1 - p)
		}
		dout[j] /= float64(n)
	}
	ae.dec.Backward(dout)
	return loss / float64(n)
}

// Reconcile runs both wire halves for one key pair in process and
// reports the outcome. salt keys the session's Bloom filter.
func (ae *AE) Reconcile(keyAlice, keyBob, salt []byte) (Outcome, error) {
	code, bobImage, err := ae.BobEncode(keyBob, salt)
	if err != nil {
		return Outcome{}, err
	}
	secure.Wipe(bobImage)
	aliceKey, aliceImage, err := ae.AliceCorrect(keyAlice, code, salt)
	if err != nil {
		return Outcome{}, err
	}
	secure.Wipe(aliceImage)

	n, m, u := ae.Cfg.KeyBits, ae.Cfg.CodeDim, ae.Cfg.DecoderUnits
	perPos := 2*u + u*u + u
	return Outcome{
		AliceKey:     aliceKey,
		BobKey:       keyBob,
		Messages:     1,
		SyndromeBits: m * 64, // float64 code vector
		// Bob: one encoder pass. Alice: encoder, one backprojection per
		// round, a full scoring pass in round 0 plus candidate-only
		// rescoring after (≈ 0.8·N in total).
		ComputeOps:    n*m + n*m + decodeRounds*m*n + (n+4*n/5)*perPos,
		LeakedKeyBits: m,
		Method:        "autoencoder",
	}, nil
}
