package nn

import "math"

// JointLoss is the paper's Eq. 3: θ·MSE(y, ŷ) + (1−θ)·BCE(z, ẑ), where
// BCE is summed over the bits rather than averaged (Eq. 5) and clamps
// predictions away from {0, 1} for numerical stability. It returns the
// combined loss and the two gradient slices already scaled by their
// weights. mask, when non-nil, limits the BCE term to the marked bit
// positions — the positions Bob's guard-banded quantizer kept.
func JointLoss(theta float64, y, yHat []float64, z []byte, zHat []float64, mask []bool) (loss float64, dyHat, dzHat []float64) {
	dyHat = make([]float64, len(y))
	dzHat = make([]float64, len(zHat))
	return jointLoss(theta, y, yHat, z, zHat, mask, dyHat, dzHat), dyHat, dzHat
}

// jointLoss is JointLoss writing its gradients into dy and dz. Its
// arithmetic is the reference's term for term (trainref_test.go).
func jointLoss(theta float64, y, yHat []float64, z []byte, zHat []float64, mask []bool, dy, dz []float64) float64 {
	n := float64(len(y))
	var mse float64
	for i := range y {
		d := yHat[i] - y[i]
		mse += d * d
		dy[i] = 2 * d / n
	}
	mse /= n
	const eps = 1e-9
	var bce float64
	for i := range zHat {
		if mask != nil && !mask[i] {
			dz[i] = 0
			continue
		}
		p := zHat[i]
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		if z[i] == 1 {
			bce += -math.Log(p)
			dz[i] = -1 / p
		} else {
			bce += -math.Log(1 - p)
			dz[i] = 1 / (1 - p)
		}
	}
	for i := range dy {
		dy[i] *= theta
	}
	for i := range dz {
		dz[i] *= 1 - theta
	}
	return theta*mse + (1-theta)*bce
}
