package protocol

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/nist"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"

	// Registers the lora-key/han/gao schemes with core's registry; the
	// test drives them purely through pipeline.Scheme.
	_ "repro/internal/baselines"
)

// baselineNames are the training-free schemes the paper compares
// against; each must run over the wire through the same Node code path
// as Vehicle-Key.
var baselineNames = []string{"lora-key", "han", "gao"}

// baselineHarness builds a named baseline scheme by registry lookup and
// correlated per-packet RSSI windows for both sides from one simulated
// collector run. Baselines are training-free, so unlike trainSystem
// there is no fitting step — the harness is ready as constructed.
func baselineHarness(t *testing.T, name string, seed int64, windows, winLen int) *soakHarness {
	t.Helper()
	sys, err := core.NewScheme(name, core.DefaultConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	col := trace.NewCollector(sc, seed)
	ex := col.Run(windows * winLen)
	alice, bob := trace.PRSSI(ex)
	h := &soakHarness{sys: sys}
	for i := 0; i+winLen <= len(alice) && len(h.aliceWin) < windows; i += winLen {
		h.aliceWin = append(h.aliceWin, alice[i:i+winLen])
		h.bobWin = append(h.bobWin, bob[i:i+winLen])
	}
	return h
}

// unpackKeyBits expands key bytes into the 0/1 slice the NIST battery
// consumes.
func unpackKeyBits(keys [][]byte) []byte {
	var out []byte
	for _, k := range keys {
		for _, b := range k {
			for i := 7; i >= 0; i-- {
				out = append(out, b>>uint(i)&1)
			}
		}
	}
	return out
}

// TestBaselineSchemesOverProtocol runs each baseline through the full
// wire protocol on a clean in-memory link — the same Node code path
// Vehicle-Key uses, selected purely by registry name — and feeds the
// confirmed key material through the NIST battery. It is the refactor's
// end-to-end check: no baseline needs (or has) protocol code of its own.
//
// Han is the exception the paper predicts: its guard-less 3-bit
// quantizer runs at roughly a third of the block mismatched on the
// vehicular channel, and correcting that in one shot needs more public
// parity than the 64-bit block holds. The leakage-bounded wire Cascade
// (reconcile.CascadeSyndromeBits < block bits, enforced by the stage)
// therefore cannot reconcile it — rounds complete, both sides agree
// essentially nothing confirms, and that verdict is the assertion. A
// wire encode that made han confirm here would necessarily be
// publishing enough equations to solve for the key, which is exactly
// the defect this pins against.
func TestBaselineSchemesOverProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol soak per scheme")
	}
	cases := []struct {
		name string
		// wireFeasible: the scheme's residual mismatch is within what
		// its reconciler can repair under the public-leakage bound, so
		// confirmed key material must flow and pass the NIST battery.
		wireFeasible bool
	}{
		{"lora-key", true},
		{"han", false},
		{"gao", true},
	}
	for i, tc := range cases {
		tc, seed := tc, int64(400+31*i)
		t.Run(tc.name, func(t *testing.T) {
			h := baselineHarness(t, tc.name, seed, 16, 160)
			a, b := transport.Pair()
			defer a.Close()
			defer b.Close()
			aliceOut, bobOut := runProtocol(t, h.sys, h.aliceWin, h.bobWin, a, b)
			confirmed := verifyOutcomes(t, aliceOut, bobOut)

			if !tc.wireFeasible {
				if len(aliceOut) == 0 {
					t.Fatalf("%s produced no rounds at all", tc.name)
				}
				if confirmed*10 > len(aliceOut) {
					t.Fatalf("%s confirmed %d/%d blocks at ~35%% block BER under a %d-bit-bounded syndrome — the wire code is leaking the key", tc.name, confirmed, len(aliceOut), 64)
				}
				return
			}
			if confirmed == 0 {
				t.Fatal("no confirmed keys")
			}

			var keys [][]byte
			for i := range aliceOut {
				if aliceOut[i].Confirmed {
					keys = append(keys, aliceOut[i].Key)
				}
			}
			bits := unpackKeyBits(keys)
			if len(bits) > 4096 {
				bits = bits[:4096] // bound LinearComplexity's quadratic cost
			}
			if len(bits) < nist.MinBits {
				t.Fatalf("%s confirmed only %d key bits, below the battery's %d-bit floor", tc.name, len(bits), nist.MinBits)
			}
			results, err := nist.Battery(bits)
			if err != nil {
				t.Fatalf("nist battery over %s keys: %v", tc.name, err)
			}
			passed := 0
			for _, r := range results {
				t.Logf("%s: %s p=%.4f passed=%t", tc.name, r.Name, r.P, r.Passed)
				if r.Passed {
					passed++
				}
			}
			// Amplified keys are hash output; with a deterministic run a
			// hard majority bound is stable while leaving room for the
			// battery's per-test 1% false-reject rate on short streams.
			if passed < len(results)-1 {
				t.Fatalf("%s: only %d/%d NIST tests passed over %d bits", tc.name, passed, len(results), len(bits))
			}
		})
	}
}

// TestBaselineSchemesUnderFaults drives every baseline through the
// retry/resync layer over a lossy link grid. The property is the same
// one the Vehicle-Key soak pins: a round confirmed by both sides never
// diverges, no matter the scheme or the link, and injected loss actually
// exercises the retransmit path.
func TestBaselineSchemesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol soak per scheme and loss cell")
	}
	cells := []struct {
		name string
		cfg  transport.FaultConfig
	}{
		{"loss10/reorder", transport.FaultConfig{Drop: 0.10, Reorder: 0.20}},
		{"loss25/duplicate", transport.FaultConfig{Drop: 0.25, Duplicate: 0.20}},
	}
	for i, name := range baselineNames {
		name, seed := name, int64(500+31*i)
		t.Run(name, func(t *testing.T) {
			h := baselineHarness(t, name, seed, 6, 160)
			for j, cell := range cells {
				cell, cellSeed := cell, seed+int64(1000+17*j)
				t.Run(cell.name, func(t *testing.T) {
					aliceOut, bobOut, aliceReg, bobReg := runUnderFaults(t, h, cell.cfg, cellSeed)
					agreed := agreedKeys(t, name+"/"+cell.name, aliceOut, bobOut)
					t.Logf("%s/%s: agreed=%d alice=%v bob=%v", name, cell.name, agreed,
						aliceReg.Snapshot().Counters, bobReg.Snapshot().Counters)
					if counter(aliceReg, obs.ProtocolRetransmits)+counter(bobReg, obs.ProtocolRetransmits) == 0 {
						t.Fatalf("%s/%s: loss injected but nobody retransmitted", name, cell.name)
					}
				})
			}
		})
	}
}
