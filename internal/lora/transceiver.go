package lora

import (
	"math"

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
	dev        DeviceType
	prof       profile
	gainBiasDB float64
	src        *rng.Source
	interval   float64

	// owed counts read-noise draws that ReceiveRange skipped. They are
	// taken, in order, before the unit's next draw (measure or OpDelay),
	// so every draw sees the stream it would have if each read had drawn
	// in turn.
	owed int
}

// NewTransceiver creates a transceiver of the given device type whose
// per-unit imperfections are drawn from src.
func NewTransceiver(dev DeviceType, src *rng.Source) *Transceiver {
	prof := dev.profile()
	return &Transceiver{
		dev:        dev,
		prof:       prof,
		gainBiasDB: src.Normal(0, prof.gainBiasStdDB),
		src:        src,
		interval:   RegisterSampleInterval,
	}
}

// Device returns the transceiver's device type.
func (t *Transceiver) Device() DeviceType { return t.dev }

// GainBiasDB exposes the unit's constant hardware bias (useful in tests).
func (t *Transceiver) GainBiasDB() float64 { return t.gainBiasDB }

// SetSampleInterval overrides the register polling interval (seconds).
func (t *Transceiver) SetSampleInterval(s float64) {
	if s > 0 {
		t.interval = s
	}
}

// OpDelay returns one sample of the host's RX→TX turnaround delay.
func (t *Transceiver) OpDelay() float64 {
	t.settle()
	return t.prof.opDelayMeanS + t.src.Uniform(-t.prof.opDelayJitterS, t.prof.opDelayJitterS)
}

// settle takes the owed read-noise draws.
func (t *Transceiver) settle() {
	for ; t.owed > 0; t.owed-- {
		t.src.Normal(0, t.prof.noiseStdDB)
	}
}

// measure performs one RSSI register read at time ts: the chip-smoothed
// channel power plus this unit's bias, read noise, and register
// quantization.
func (t *Transceiver) measure(rssiAt func(t float64) float64, ts float64) float64 {
	var sum float64
	for k := 0; k < rssiSmoothingTaps; k++ {
		back := RSSISmoothing * float64(k) / float64(rssiSmoothingTaps)
		sum += rssiAt(ts - back)
	}
	t.settle()
	v := sum/rssiSmoothingTaps + t.gainBiasDB + t.src.Normal(0, t.prof.noiseStdDB)
	step := t.prof.rssiStepDB
	return math.Round(v/step) * step
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
	n := int(airtime / t.interval)
	if n < 1 {
		n = 1
	}
	return n
}

// readTime is the absolute timestamp of register read i of a reception
// starting at start.
func (t *Transceiver) readTime(start float64, i int) float64 {
	return start + (float64(i)+0.5)*t.interval
}

// Receive simulates receiving one packet that is on the air during
// [start, start+airtime). rssiAt must return the true (noise-free)
// received power in dBm at an absolute time; it is typically
// channel.Model.RSSIdBm composed with the peer's transmit power.
func (t *Transceiver) Receive(rssiAt func(t float64) float64, start, airtime float64) Reception {
	n := t.Reads(airtime)
	rec := Reception{
		Start:   start,
		Airtime: airtime,
		Times:   make([]float64, n),
		RRSSI:   t.ReceiveRange(rssiAt, start, airtime, 0, n),
	}
	for i := range rec.Times {
		rec.Times[i] = t.readTime(start, i)
	}
	rec.PRSSI = mathx.Mean(rec.RRSSI)
	return rec
}

// ReceiveRange simulates receiving the same packet as Receive but
// returns only the register reads [lo, hi) (clamped to [0, Reads]),
// equal to Receive(...).RRSSI[lo:hi]. The channel is evaluated only
// inside the range. Every read outside it still owes its read noise:
// the owed draws are taken, in order, before the unit's next draw of
// any kind (a read or an OpDelay), so the random stream every later
// read and OpDelay sees is exactly the one a full Receive leaves. A
// unit that never draws again never pays them.
func (t *Transceiver) ReceiveRange(rssiAt func(t float64) float64, start, airtime float64, lo, hi int) []float64 {
	n := t.Reads(airtime)
	hi = min(max(hi, 0), n)
	lo = min(max(lo, 0), hi)
	out := make([]float64, hi-lo)
	t.owed += lo
	for i := lo; i < hi; i++ {
		out[i-lo] = t.measure(rssiAt, t.readTime(start, i))
	}
	t.owed += n - hi
	return out
}
