// Package channel simulates the vehicular radio channel that Vehicle-Key
// harvests randomness from. It implements the exact models the paper's
// theory section (Sec. II-A) uses:
//
//   - log-distance path loss between the endpoints,
//   - log-normal shadow fading, spatially correlated along the driven
//     route (Gudmundson model),
//   - Rayleigh (urban NLOS) / Rician (rural LOS) small-scale fading
//     synthesized with a Jakes sum-of-sinusoids oscillator bank whose
//     Doppler spread follows f_d = v_rel/c · f_0, and
//   - mobility models for V2V and V2I links.
//
// The channel between Alice and Bob is reciprocal by construction: both
// directions read the same ground-truth gain process. Asymmetry enters
// only through *when* each side samples it (LoRa airtime, modeled in
// package lora) and through receiver noise and hardware offsets.
// Eve's channels are spatially decorrelated: an imitating Eve shares the
// large-scale terms (path loss, most of the shadowing) but never the
// small-scale fading, exactly as the paper argues for separations beyond
// λ/2.
package channel

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// SpeedOfLight is the radio propagation speed in m/s.
const SpeedOfLight = 3e8

// Environment selects the propagation preset.
type Environment int

const (
	// Urban is the NLOS city preset: strong multipath (Rayleigh), large
	// path-loss exponent, short shadowing decorrelation distance.
	Urban Environment = iota + 1
	// Rural is the LOS countryside preset: Rician fading with a dominant
	// line-of-sight component and a long shadowing decorrelation distance.
	Rural
)

// String implements fmt.Stringer.
func (e Environment) String() string {
	switch e {
	case Urban:
		return "urban"
	case Rural:
		return "rural"
	}
	return fmt.Sprintf("Environment(%d)", int(e))
}

// LinkType distinguishes vehicle-to-vehicle from vehicle-to-infrastructure
// links.
type LinkType int

const (
	// V2V links have both endpoints moving.
	V2V LinkType = iota + 1
	// V2I links have one moving endpoint (Alice) and one static (Bob).
	V2I
)

// String implements fmt.Stringer.
func (l LinkType) String() string {
	switch l {
	case V2V:
		return "V2V"
	case V2I:
		return "V2I"
	}
	return fmt.Sprintf("LinkType(%d)", int(l))
}

// Config fully describes one simulated link.
type Config struct {
	Env  Environment
	Link LinkType

	// SpeedAKmh and SpeedBKmh are the endpoint speeds in km/h. For V2I
	// links SpeedBKmh is forced to zero.
	SpeedAKmh float64
	SpeedBKmh float64

	// CarrierHz is the LoRa carrier frequency (the paper uses 434 MHz).
	CarrierHz float64

	// InitialDistanceM is the starting separation between the endpoints.
	InitialDistanceM float64

	// TxPowerDBm is the transmit power used to convert channel gain into
	// received signal strength.
	TxPowerDBm float64

	// Propagation parameters; zero values are filled in from the
	// environment preset by Normalize.
	PathLossExp    float64 // log-distance exponent n
	RefLossDB      float64 // loss at the 1 m reference distance
	ShadowSigmaDB  float64 // shadowing std deviation σ
	ShadowDecorrM  float64 // Gudmundson decorrelation distance
	RicianK        float64 // LOS/scatter power ratio (0 ⇒ Rayleigh)
	MinDopplerKmh  float64 // environmental-motion floor for f_d
	EveOffsetM     float64 // Eve's separation from the legitimate node
	EveShadowCorr  float64 // shadowing cross-correlation of Eve's link with the legitimate link
	MinDistanceM   float64 // closest approach of the endpoints
	MaxDistanceM   float64 // farthest separation of the endpoints
	ScatterDoppler bool    // V2V: scatterers add both speeds to f_d spread
}

// DefaultConfig returns the paper's experimental configuration for the
// given environment and link type: 434 MHz carrier, 50 km/h vehicle(s),
// endpoints several hundred metres apart.
func DefaultConfig(env Environment, link LinkType) Config {
	cfg := Config{
		Env:              env,
		Link:             link,
		SpeedAKmh:        50,
		SpeedBKmh:        30,
		CarrierHz:        434e6,
		InitialDistanceM: 400,
		TxPowerDBm:       14,
	}
	cfg.Normalize()
	return cfg
}

// Normalize fills unset propagation fields from the environment preset and
// enforces link-type invariants. It must be called (directly or via
// NewModel) before the config is used.
func (c *Config) Normalize() {
	if c.CarrierHz == 0 {
		c.CarrierHz = 434e6
	}
	if c.InitialDistanceM == 0 {
		c.InitialDistanceM = 400
	}
	if c.TxPowerDBm == 0 {
		c.TxPowerDBm = 14
	}
	if c.MinDopplerKmh == 0 {
		c.MinDopplerKmh = 3 // residual environmental motion
	}
	if c.EveOffsetM == 0 {
		c.EveOffsetM = 10
	}
	if c.EveShadowCorr == 0 {
		// Link-to-link shadowing cross-correlation, not along-route
		// autocorrelation: even a closely trailing attacker's link passes
		// different obstacles at different angles, and measured
		// site-to-site cross-correlations are weak (≈ 0.2–0.5 in the
		// literature). 0.3 is a conservative middle value.
		c.EveShadowCorr = 0.3
	}
	if c.MinDistanceM == 0 {
		c.MinDistanceM = c.InitialDistanceM / 2
	}
	if c.MaxDistanceM == 0 {
		c.MaxDistanceM = c.InitialDistanceM * 2
	}
	switch c.Env {
	case Rural:
		// Open LOS country road: gentle path loss, weak smooth shadowing,
		// strong Rician LOS component. The weak shadowing makes the
		// (perfectly reciprocal) path-loss trend dominate, which is why
		// the paper's rural traces stay comparatively correlated.
		if c.PathLossExp == 0 {
			c.PathLossExp = 2.2
		}
		if c.ShadowSigmaDB == 0 {
			c.ShadowSigmaDB = 4
		}
		if c.ShadowDecorrM == 0 {
			c.ShadowDecorrM = 50
		}
		if c.RicianK == 0 {
			c.RicianK = 6 // strong LOS
		}
	default: // Urban and unset
		// Dense NLOS city: strong, rapidly decorrelating shadowing from
		// buildings dominates the RSSI variance, so packet-separated
		// measurements decorrelate quickly — the paper's core challenge.
		if c.Env == 0 {
			c.Env = Urban
		}
		if c.PathLossExp == 0 {
			c.PathLossExp = 3.2
		}
		if c.ShadowSigmaDB == 0 {
			c.ShadowSigmaDB = 8.5
		}
		if c.ShadowDecorrM == 0 {
			c.ShadowDecorrM = 15
		}
		// Urban NLOS: RicianK stays 0 ⇒ Rayleigh.
	}
	if c.RefLossDB == 0 {
		// Free-space loss at 1 m for the configured carrier:
		// 20·log10(4πd f / c), d = 1 m.
		c.RefLossDB = freeSpace1m(c.CarrierHz)
	}
	if c.Link == V2I {
		c.SpeedBKmh = 0
	}
	if c.Link == V2V {
		c.ScatterDoppler = true
	}
}

// Wavelength returns the carrier wavelength in metres (≈ 0.6912 m at
// 434 MHz, so λ/2 ≈ 34.56 cm, the paper's Eve-separation bound).
func (c Config) Wavelength() float64 { return SpeedOfLight / c.CarrierHz }

// RelativeSpeedKmh is the Doppler-determining speed from the paper's
// formula f_d = |V_A − V_B|/c · f_0, floored at MinDopplerKmh so the
// channel never freezes entirely.
func (c Config) RelativeSpeedKmh() float64 {
	v := c.SpeedAKmh - c.SpeedBKmh
	if v < 0 {
		v = -v
	}
	if c.ScatterDoppler {
		// Rich scattering around both moving endpoints widens the Doppler
		// spectrum: the worst-case scatter path sees both motions.
		if s := 0.5 * (c.SpeedAKmh + c.SpeedBKmh); s > v {
			v = s
		}
	}
	if v < c.MinDopplerKmh {
		v = c.MinDopplerKmh
	}
	return v
}

// DopplerHz returns the maximum Doppler shift f_d.
func (c Config) DopplerHz() float64 {
	return kmhToMs(c.RelativeSpeedKmh()) / SpeedOfLight * c.CarrierHz
}

// CoherenceTime returns the paper's T_c ≈ 0.423/f_d estimate in seconds.
func (c Config) CoherenceTime() float64 { return 0.423 / c.DopplerHz() }

func kmhToMs(v float64) float64 { return v / 3.6 }

func freeSpace1m(f float64) float64 {
	// 20·log10(4π·1·f/c)
	const fourPi = 12.566370614359172
	return 20 * log10(fourPi*f/SpeedOfLight)
}

// Model is a ground-truth channel process for one Alice–Bob link plus the
// correlated-but-distinct processes observed by an attacker Eve. All gains
// are in dB relative to transmit power; RSSI(t) = TxPowerDBm + gain(t).
//
// Model is not safe for concurrent use: derive independent models per
// goroutine from independent rng.Sources.
type Model struct {
	cfg Config

	mob    *Mobility
	shadow *ShadowProcess
	fader  *Fader // reciprocal Alice↔Bob small-scale fading

	// Imitating Eve: follows Alice a few metres behind. Her link's
	// shadowing is only partially correlated with the legitimate link's
	// (mixing weight exp(−offset/decorr)) and her small-scale fading is
	// fully independent — she is far beyond λ/2 from Alice's antenna.
	eveFader  *Fader
	eveShadow *ShadowProcess
	eveMix    float64 // shadow cross-correlation with the legitimate link

	// Eavesdropping Eve: parked near Bob, same partial-shadow and
	// independent-fading structure on the Alice→Eve path.
	eveFarFader  *Fader
	eveFarShadow *ShadowProcess

	buf []float64 // scratch for the gain forms
}

// NewModel builds a channel model for cfg, normalizing it first. All
// randomness derives from src.
func NewModel(cfg Config, src *rng.Source) *Model {
	cfg.Normalize()
	fd := cfg.DopplerHz()
	m := &Model{
		cfg:          cfg,
		mob:          NewMobility(cfg, src.Derive("mobility")),
		shadow:       NewShadowProcess(cfg.ShadowSigmaDB, cfg.ShadowDecorrM, src.Derive("shadow")),
		fader:        NewFader(fd, cfg.RicianK, src.Derive("fading")),
		eveFader:     NewFader(fd, cfg.RicianK, src.Derive("eve-fading")),
		eveShadow:    NewShadowProcess(cfg.ShadowSigmaDB, cfg.ShadowDecorrM, src.Derive("eve-shadow")),
		eveMix:       cfg.EveShadowCorr,
		eveFarFader:  NewFader(fd, cfg.RicianK, src.Derive("eve-far-fading")),
		eveFarShadow: NewShadowProcess(cfg.ShadowSigmaDB, cfg.ShadowDecorrM, src.Derive("eve-far-shadow")),
	}
	return m
}

// Config returns the normalized configuration the model was built with.
func (m *Model) Config() Config { return m.cfg }

// GainsDB writes the reciprocal Alice↔Bob channel gain at each time
// ts[i] seconds into out[i]. out must be at least as long as ts.
func (m *Model) GainsDB(ts, out []float64) {
	m.fader.envelopesDB(ts, out, m.scratch(len(ts)))
	for i, t := range ts {
		d := m.mob.Distance(t)
		pl := m.pathLossDB(d)
		sh := m.shadow.At(m.mob.RoutePosition(t))
		out[i] = -pl + sh + out[i]
	}
}

// EveImitateGainsDB writes the gain of the Bob→Eve channel at each time
// ts[i] into out[i], for an Eve who replays Alice's route EveOffsetM
// behind her: identical path loss trend, shadowing sampled slightly
// earlier along the route, independent small-scale fading.
func (m *Model) EveImitateGainsDB(ts, out []float64) {
	m.eveFader.envelopesDB(ts, out, m.scratch(len(ts)))
	for i, t := range ts {
		d := m.mob.Distance(t) + m.cfg.EveOffsetM
		pl := m.pathLossDB(d)
		pos := m.mob.RoutePosition(t)
		sh := m.mixedShadow(m.shadow.At(pos-m.cfg.EveOffsetM), m.eveShadow.At(pos))
		out[i] = -pl + sh + out[i]
	}
}

// mixedShadow blends the legitimate link's shadowing with Eve's own so the
// cross-correlation equals eveMix while the marginal variance is
// preserved.
func (m *Model) mixedShadow(legit, own float64) float64 {
	return m.eveMix*legit + math.Sqrt(1-m.eveMix*m.eveMix)*own
}

// EveEavesdropGainsDB writes the gain of the Alice→Eve channel at each
// time ts[i] into out[i], for an Eve parked EveOffsetM from Bob: similar
// distance, but fully independent shadowing and fading (she is far
// beyond λ/2 from Bob's antenna).
func (m *Model) EveEavesdropGainsDB(ts, out []float64) {
	m.eveFarFader.envelopesDB(ts, out, m.scratch(len(ts)))
	for i, t := range ts {
		d := m.mob.Distance(t) + m.cfg.EveOffsetM
		pl := m.pathLossDB(d)
		pos := m.mob.RoutePosition(t)
		sh := m.mixedShadow(m.shadow.At(pos), m.eveFarShadow.At(pos))
		out[i] = -pl + sh + out[i]
	}
}

// scratch returns the model's reusable buffer for n values (the
// quadrature the envelopes are formed from).
func (m *Model) scratch(n int) []float64 {
	if cap(m.buf) < n {
		m.buf = make([]float64, n)
	}
	return m.buf[:n]
}

// Distance reports the Alice–Bob separation at time t.
func (m *Model) Distance(t float64) float64 { return m.mob.Distance(t) }

func (m *Model) pathLossDB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return m.cfg.RefLossDB + 10*m.cfg.PathLossExp*log10(d)
}
