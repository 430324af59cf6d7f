package channel

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// Mobility models the endpoint kinematics of one link. The separation
// between the endpoints sweeps back and forth inside the configured
// [MinDistanceM, MaxDistanceM] band (vehicles approach, pass and recede
// along the road), and the model exposes the two quantities the channel
// needs:
//
//   - Distance(t): the Alice–Bob separation, which drives path loss, and
//   - RoutePosition(t): the cumulative distance driven by the moving
//     endpoints, which indexes the shadowing field (the local obstacle
//     environment changes as *either* endpoint moves).
type Mobility struct {
	link   LinkType
	speedA float64 // m/s
	speedB float64 // m/s

	minD, maxD float64
	closeSpeed float64 // rate at which the separation sweeps, m/s
	phase      float64
}

// NewMobility builds the mobility model for cfg.
func NewMobility(cfg Config, src *rng.Source) *Mobility {
	vA, vB := kmhToMs(cfg.SpeedAKmh), kmhToMs(cfg.SpeedBKmh)
	var closing float64
	switch cfg.Link {
	case V2I:
		// The vehicle's full speed translates into range change.
		closing = vA
	default:
		// Two vehicles in traffic close at their speed difference, but
		// never slower than a fraction of their common speed (lane
		// changes, curves, overtaking).
		closing = math.Abs(vA - vB)
		if floor := 0.25 * (vA + vB); closing < floor {
			closing = floor
		}
	}
	if closing <= 0 {
		closing = 0.5
	}
	span := cfg.MaxDistanceM - cfg.MinDistanceM
	return &Mobility{
		link:       cfg.Link,
		speedA:     vA,
		speedB:     vB,
		minD:       cfg.MinDistanceM,
		maxD:       cfg.MaxDistanceM,
		closeSpeed: closing,
		phase:      src.Uniform(0, 2*span),
	}
}

// bounce maps unbounded travel x onto a back-and-forth position in
// [0, length] (triangle wave).
func bounce(x, length float64) float64 {
	if length <= 0 {
		return 0
	}
	period := 2 * length
	x = mathx.Mod(x, period)
	if x < 0 {
		x += period
	}
	if x > length {
		return period - x
	}
	return x
}

// Distance returns the Alice–Bob separation at time t seconds.
func (m *Mobility) Distance(t float64) float64 {
	span := m.maxD - m.minD
	if span <= 0 {
		return m.minD
	}
	return m.minD + bounce(m.phase+m.closeSpeed*t, span)
}

// RoutePosition returns the cumulative environment-changing travel at time
// t: the sum of both endpoints' driven distances.
func (m *Mobility) RoutePosition(t float64) float64 {
	return (m.speedA + m.speedB) * t
}

// SpeedA returns Alice's speed in m/s.
func (m *Mobility) SpeedA() float64 { return m.speedA }

// SpeedB returns Bob's speed in m/s.
func (m *Mobility) SpeedB() float64 { return m.speedB }
