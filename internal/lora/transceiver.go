package lora

import (
	"math"
	"slices"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// RegisterSampleInterval is how often the host polls the SX127x RSSI
// register during packet reception. Real hosts poll over SPI every few
// milliseconds; 10 ms gives ≈ 150 register samples per SF12 packet.
const RegisterSampleInterval = 10e-3

// RSSISmoothing is the time constant of the SX127x's internal RSSI
// averaging (the RssiSmoothing register, default 8 samples ≈ two symbol
// periods at SF12/125 kHz). Each register read reports the channel
// averaged over roughly this window, not an instantaneous value.
const RSSISmoothing = 65e-3

// rssiSmoothingTaps is how many points the simulator averages across the
// smoothing window.
const rssiSmoothingTaps = 3

// Transceiver is one LoRa radio endpoint. It owns the device-specific
// measurement imperfections: a constant per-unit gain bias (hardware
// imperfection), per-read Gaussian noise (thermal noise + interference
// asymmetry), register quantization, and the host turnaround delay.
//
// A Transceiver is not safe for concurrent use.
type Transceiver struct {
	dev  DeviceType
	prof profile
	src  *rng.Source

	// gainBiasDB is the unit's constant bias, the first draw from src.
	// It is taken (and biased set) at the unit's first draw of any
	// kind, so a unit that never draws never seeds its stream.
	gainBiasDB float64
	biased     bool

	// owed counts read-noise draws that ReceiveRange skipped. The stream
	// is advanced past them (rng.Source.SkipNormals) before the unit's
	// next draw (a read or OpDelay), so every draw sees the stream it
	// would have if each read had drawn in turn.
	owed int

	// buf holds one ranged receive's smoothing-tap times and the
	// channel values at them, reused across receptions.
	buf []float64
}

// NewTransceiver creates a transceiver of the given device type whose
// per-unit imperfections are drawn from src, in order: first the gain
// bias, then every read's noise and every OpDelay as they come.
func NewTransceiver(dev DeviceType, src *rng.Source) *Transceiver {
	return &Transceiver{dev: dev, prof: dev.profile(), src: src}
}

// Device returns the transceiver's device type.
func (t *Transceiver) Device() DeviceType { return t.dev }

// GainBiasDB returns the unit's constant hardware bias. Calling it
// counts as a draw: the bias is drawn now if the unit has not drawn yet.
func (t *Transceiver) GainBiasDB() float64 {
	if !t.biased {
		t.gainBiasDB = t.src.Normal(0, t.prof.gainBiasStdDB)
		t.biased = true
	}
	return t.gainBiasDB
}

// OpDelay returns one sample of the host's RX→TX turnaround delay.
func (t *Transceiver) OpDelay() float64 {
	t.settle()
	return t.prof.opDelayMeanS + t.src.Uniform(-t.prof.opDelayJitterS, t.prof.opDelayJitterS)
}

// settle takes the gain bias, if not yet drawn, and then skips the owed
// read-noise draws: every draw of the unit comes after it.
func (t *Transceiver) settle() {
	t.GainBiasDB()
	t.src.SkipNormals(t.owed)
	t.owed = 0
}

// Reception is the result of receiving one LoRa packet: the stream of
// instantaneous register RSSI reads (rRSSI) taken while the packet was on
// the air, and their packet average (pRSSI).
type Reception struct {
	Start   float64   // reception start time (s)
	Airtime float64   // packet time-on-air (s)
	Times   []float64 // absolute timestamp of each register read
	RRSSI   []float64 // instantaneous register RSSI reads (dBm)
	PRSSI   float64   // packet-averaged RSSI (dBm)
}

// Reads returns how many register reads the host takes while a packet
// of the given airtime is on the air (at least one).
func (t *Transceiver) Reads(airtime float64) int {
	n := int(airtime / RegisterSampleInterval)
	if n < 1 {
		n = 1
	}
	return n
}

// readTime is the absolute timestamp of register read i of a reception
// starting at start.
func (t *Transceiver) readTime(start float64, i int) float64 {
	return start + (float64(i)+0.5)*RegisterSampleInterval
}

// Receive simulates receiving one packet that is on the air during
// [start, start+airtime). rssiAt must write the true (noise-free)
// received power in dBm at each absolute time ts[i] into out[i]; it is
// typically a channel.Model gain form plus the peer's transmit power.
func (t *Transceiver) Receive(rssiAt func(ts, out []float64), start, airtime float64) Reception {
	n := t.Reads(airtime)
	rec := Reception{
		Start:   start,
		Airtime: airtime,
		Times:   make([]float64, n),
		RRSSI:   t.ReceiveRange(nil, rssiAt, start, airtime, 0, n),
	}
	for i := range rec.Times {
		rec.Times[i] = t.readTime(start, i)
	}
	rec.PRSSI = mathx.Mean(rec.RRSSI)
	return rec
}

// ReceiveRange simulates receiving the same packet as Receive but
// appends to dst only the register reads [lo, hi) (clamped to
// [0, Reads]), equal to Receive(...).RRSSI[lo:hi], and returns the
// extended slice. The channel is evaluated only inside the range, in
// one rssiAt call over every read's smoothing-tap times. Each read
// reports the chip-smoothed channel power (its taps summed in order and
// averaged) plus this unit's bias, read noise and register
// quantization. Every read outside the range still owes its read
// noise: the stream is advanced past the owed draws before the unit's
// next draw of any kind (a read or an OpDelay), so the random stream
// every later read and OpDelay sees is exactly the one a full Receive
// leaves. A unit that never draws again never pays them.
func (t *Transceiver) ReceiveRange(dst []float64, rssiAt func(ts, out []float64), start, airtime float64, lo, hi int) []float64 {
	n := t.Reads(airtime)
	hi = min(max(hi, 0), n)
	lo = min(max(lo, 0), hi)
	dst = slices.Grow(dst, hi-lo)
	t.owed += lo
	if m := (hi - lo) * rssiSmoothingTaps; m > 0 {
		if cap(t.buf) < 2*m {
			t.buf = make([]float64, 2*m)
		}
		taps, vals := t.buf[:m], t.buf[m:2*m]
		for i := lo; i < hi; i++ {
			ts := t.readTime(start, i)
			for k := 0; k < rssiSmoothingTaps; k++ {
				back := RSSISmoothing * float64(k) / float64(rssiSmoothingTaps)
				taps[(i-lo)*rssiSmoothingTaps+k] = ts - back
			}
		}
		rssiAt(taps, vals)
		step := t.prof.rssiStepDB
		for r := 0; r < m; r += rssiSmoothingTaps {
			var sum float64
			for _, v := range vals[r : r+rssiSmoothingTaps] {
				sum += v
			}
			t.settle()
			v := sum/rssiSmoothingTaps + t.gainBiasDB + t.src.Normal(0, t.prof.noiseStdDB)
			dst = append(dst, math.Round(v/step)*step)
		}
	}
	t.owed += n - hi
	return dst
}
