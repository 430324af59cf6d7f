package lora

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

func TestBitRateMatchesPaper(t *testing.T) {
	// The paper: SF12, BW 125 kHz, CR 4/8 → 183 bit/s.
	p := Default()
	if rb := p.BitRate(); math.Abs(rb-183.1) > 0.2 {
		t.Errorf("bit rate = %v, want ~183", rb)
	}
}

func TestDataRateSweepMatchesFig2a(t *testing.T) {
	want := []float64{23, 46, 92, 183, 293, 586, 1172}
	pts := DataRateSweep()
	if len(pts) != len(want) {
		t.Fatalf("sweep has %d points, want %d", len(pts), len(want))
	}
	for i, pt := range pts {
		if math.Abs(pt.BitsPS-want[i])/want[i] > 0.02 {
			t.Errorf("point %d: %v bps, want ~%v", i, pt.BitsPS, want[i])
		}
		if err := pt.Params.Validate(); err != nil {
			t.Errorf("point %d invalid: %v", i, err)
		}
	}
}

func TestSymbolTime(t *testing.T) {
	p := Default()
	if ts := p.SymbolTime(); math.Abs(ts-32.768e-3) > 1e-6 {
		t.Errorf("SF12/125k symbol time = %v, want 32.768 ms", ts)
	}
}

func TestAirtimeKnownValue(t *testing.T) {
	// Cross-checked against the Semtech airtime calculator:
	// SF12, BW125, CR4/8, 16-byte payload, explicit header, CRC, DE on,
	// preamble 8 → 12.25 preamble symbols + 8+7*8 = 64 payload symbols?
	// The calculator yields ≈ 1712 ms.
	p := Default()
	if at := p.Airtime(); math.Abs(at-1.712) > 0.01 {
		t.Errorf("airtime = %v s, want ~1.712 s", at)
	}
}

func TestAirtimeMonotoneInPayload(t *testing.T) {
	p := Default()
	prev := 0.0
	for bytes := 1; bytes <= 64; bytes *= 2 {
		p.PayloadBytes = bytes
		at := p.Airtime()
		if at < prev {
			t.Fatalf("airtime must grow with payload: %v < %v at %d bytes", at, prev, bytes)
		}
		prev = at
	}
}

func TestValidate(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.SpreadingFactor = 13
	if err := p.Validate(); err == nil {
		t.Error("SF13 must be rejected")
	}
	p = Default()
	p.BandwidthHz = 100e3
	if err := p.Validate(); err == nil {
		t.Error("non-SX127x bandwidth must be rejected")
	}
	p = Default()
	p.PayloadBytes = 0
	if err := p.Validate(); err == nil {
		t.Error("zero payload must be rejected")
	}
}

func TestTransceiverReceive(t *testing.T) {
	tr := NewTransceiver(DraginoLoRaShield, rng.New(1))
	rssiAt := func(ts, out []float64) { // ramp
		for i, tt := range ts {
			out[i] = -80 + tt
		}
	}
	rec := tr.Receive(rssiAt, 0, 1.7)
	if len(rec.RRSSI) < 100 {
		t.Fatalf("expected ≥100 register reads for 1.7 s airtime, got %d", len(rec.RRSSI))
	}
	if rec.PRSSI < -85 || rec.PRSSI > -75 {
		t.Errorf("pRSSI %v implausible for ramp around -80", rec.PRSSI)
	}
	// Register quantization: all values on the 1 dB grid.
	for _, v := range rec.RRSSI {
		if v != math.Round(v) {
			t.Fatalf("rRSSI %v not quantized to 1 dB", v)
		}
	}
}

func TestTransceiverBiasIsStable(t *testing.T) {
	tr := NewTransceiver(MultiTechXDot, rng.New(2))
	b1 := tr.GainBiasDB()
	tr.Receive(func(ts, out []float64) {
		for i := range ts {
			out[i] = -70
		}
	}, 0, 0.3)
	if tr.GainBiasDB() != b1 {
		t.Error("hardware bias must be constant per unit")
	}
	tr2 := NewTransceiver(MultiTechXDot, rng.New(3))
	if tr2.GainBiasDB() == b1 {
		t.Error("different units should draw different biases")
	}
}

func TestOpDelayWithinProfile(t *testing.T) {
	tr := NewTransceiver(DraginoLoRaShield, rng.New(4))
	for i := 0; i < 100; i++ {
		d := tr.OpDelay()
		if d < 5e-3 || d > 25e-3 {
			t.Fatalf("op delay %v s outside the Dragino profile", d)
		}
	}
}

func TestDeviceStrings(t *testing.T) {
	for _, d := range AllDevices() {
		if d.String() == "" {
			t.Error("device must have a name")
		}
	}
}

// testRSSI is a smooth synthetic channel in dBm, and batched its
// slice form.
func testRSSI(tt float64) float64 { return -90 + 12*math.Sin(7*tt) + 3*math.Cos(41*tt) }

func batched(rssiAt func(float64) float64) func(ts, out []float64) {
	return func(ts, out []float64) {
		for i, tt := range ts {
			out[i] = rssiAt(tt)
		}
	}
}

// TestReceiveMatchesPerReadLoop: Receive, which evaluates the channel
// once for all of a reception's smoothing taps, equals the per-read
// loop that queries each tap in turn and then draws the read's noise.
func TestReceiveMatchesPerReadLoop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ref := NewTransceiver(DraginoLoRaShield, rng.New(seed))
		unit := NewTransceiver(DraginoLoRaShield, rng.New(seed))
		for rx, at := 0, 0.5; rx < 3; rx, at = rx+1, at+1.9 {
			var want []float64
			for i := range ref.Reads(1.712) {
				ts := ref.readTime(at, i)
				var sum float64
				for k := 0; k < rssiSmoothingTaps; k++ {
					sum += testRSSI(ts - RSSISmoothing*float64(k)/float64(rssiSmoothingTaps))
				}
				v := sum/rssiSmoothingTaps + ref.GainBiasDB() + ref.src.Normal(0, ref.prof.noiseStdDB)
				want = append(want, math.Round(v/ref.prof.rssiStepDB)*ref.prof.rssiStepDB)
			}
			if got := unit.Receive(batched(testRSSI), at, 1.712).RRSSI; !sameBits(got, want) {
				t.Fatalf("seed %d reception %d: reads differ from the per-read loop", seed, rx)
			}
		}
	}
}

// TestReceiveRangeMatchesReceive: a ranged receive appends exactly the
// full reception's reads [lo, hi) to dst, evaluates the channel only at
// those reads' taps, in one call, and leaves the unit's random stream
// where a full Receive would (the next OpDelay is bit-identical).
func TestReceiveRangeMatchesReceive(t *testing.T) {
	rssiAt := batched(testRSSI)
	const start, airtime = 3.25, 1.712
	n := NewTransceiver(DraginoLoRaShield, rng.New(9)).Reads(airtime)
	for _, r := range []struct{ lo, hi int }{
		{0, 0}, {n / 2, n / 2}, {0, n}, {0, 1}, {n - 1, n}, {n / 3, n/3 + 1},
		{0, n / 10}, {n - n/10, n}, {17, 64}, {-5, 3}, {n - 2, n + 7},
	} {
		full := NewTransceiver(DraginoLoRaShield, rng.New(9))
		part := NewTransceiver(DraginoLoRaShield, rng.New(9))
		want := full.Receive(rssiAt, start, airtime).RRSSI
		calls, taps := 0, 0
		counted := func(ts, out []float64) { calls++; taps += len(ts); rssiAt(ts, out) }
		prefix := []float64{-1, -2}
		got := part.ReceiveRange(slices.Clone(prefix), counted, start, airtime, r.lo, r.hi)
		if !sameBits(got[:len(prefix)], prefix) {
			t.Fatalf("[%d,%d): dst's contents were overwritten", r.lo, r.hi)
		}
		got = got[len(prefix):]
		lo, hi := min(max(r.lo, 0), n), min(max(r.hi, 0), n)
		if len(got) != hi-lo {
			t.Fatalf("[%d,%d): %d reads, want %d", r.lo, r.hi, len(got), hi-lo)
		}
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(want[lo+i]) {
				t.Fatalf("[%d,%d): read %d = %v, want %v", r.lo, r.hi, lo+i, v, want[lo+i])
			}
		}
		if taps != rssiSmoothingTaps*(hi-lo) || calls != min(hi-lo, 1) {
			t.Errorf("[%d,%d): channel evaluated at %d times in %d calls, want %d in %d", r.lo, r.hi, taps, calls, rssiSmoothingTaps*(hi-lo), min(hi-lo, 1))
		}
		if a, b := full.OpDelay(), part.OpDelay(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("[%d,%d): next OpDelay %v, want %v", r.lo, r.hi, b, a)
		}
	}

	// Skipped reads owe their noise until the unit's next draw: after
	// any run of partial and empty ranges, the next OpDelay and a full
	// Receive equal those of a unit whose every reception drew in full.
	pick := rng.New(4)
	for trial := 0; trial < 300; trial++ {
		always := NewTransceiver(DraginoLoRaShield, rng.New(int64(trial)))
		owing := NewTransceiver(DraginoLoRaShield, rng.New(int64(trial)))
		at := start
		for step := pick.Intn(6); step > 0; step-- {
			lo := pick.Intn(n+8) - 4
			hi := lo + pick.Intn(n/2+8) - 4 // empty when hi ≤ lo
			want := always.Receive(rssiAt, at, airtime).RRSSI
			got := owing.ReceiveRange(nil, rssiAt, at, airtime, lo, hi)
			lo = min(max(lo, 0), n)
			if len(got) > 0 && !sameBits(got, want[lo:lo+len(got)]) {
				t.Fatalf("trial %d: ranged reads from %d differ from the full reception's", trial, lo)
			}
			at += airtime
		}
		if a, b := always.OpDelay(), owing.OpDelay(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: OpDelay %v after ranged receptions, want %v", trial, b, a)
		}
		if a, b := always.Receive(rssiAt, at, airtime), owing.Receive(rssiAt, at, airtime); !sameBits(a.RRSSI, b.RRSSI) {
			t.Fatalf("trial %d: full Receive after ranged receptions differs", trial)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
