package baselines

import (
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
)

// totalDuration sums the probing time of the exchanges.
func totalDuration(ex []trace.Exchange) float64 {
	var t float64
	for _, e := range ex {
		t += e.Duration
	}
	return t
}

// TestBaselinesRun evaluates each baseline over one collected pRSSI
// trace through core's stream evaluator, the Fig. 12/13 path.
func TestBaselinesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("collects a long trace")
	}
	ex := trace.NewCollector(trace.NewScenario(channel.Urban, channel.V2I), 77).Run(600)
	alice, bob := trace.PRSSI(ex)
	results := map[string]core.Metrics{}
	for _, name := range []string{"lora-key", "han", "gao"} {
		sys, err := core.NewScheme(name, core.DefaultConfig(), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.EvaluateStream(alice, bob, totalDuration(ex))
		if err != nil {
			t.Fatal(err)
		}
		results[name] = r
		t.Logf("%s: %v", name, r)
		if r.Blocks == 0 {
			t.Errorf("%s produced no blocks", name)
		}
		if r.PostKAR <= 0.5 || r.PostKAR > 1 {
			t.Errorf("%s postKAR %.3f out of plausible range", name, r.PostKAR)
		}
		// Fig. 13's claim reproduced as: every pRSSI baseline's net
		// secret rate sits far below Vehicle-Key's ≈ 0.2–0.5 bit/s on
		// the same channel (asserted end to end in internal/exp tests).
		if r.NetKGR > 0.12 {
			t.Errorf("%s net KGR %.4f implausibly high for a pRSSI scheme", name, r.NetKGR)
		}
	}
	// LoRa-Key's published no-index-exchange protocol collapses toward
	// chance agreement under mobility (the paper's headline gap).
	if lk := results["lora-key"]; lk.PostKAR > 0.75 {
		t.Errorf("LoRa-Key postKAR %.3f should collapse under mobility", lk.PostKAR)
	}
}

// streamGoldens pins the figure-path metrics (Figs. 12/13 and the
// schemes sweep) of every registered scheme on one fixed 800-exchange
// trace per scenario (collector seed 5, scheme seed 1; vehicle-key runs
// untrained, as BenchmarkScheme does). Each line is Blocks, PreKAR,
// PreKARStd, PostKAR, PostKARStd, KGR and NetKGR, the floats printed
// with %v (the shortest representation that round-trips to the same
// float64 bits). They were captured while the stream evaluator kept
// its own copy of the block aggregation.
var streamGoldens = map[string]map[string]string{
	"V2I-urban": {
		"gao":         "4 0.8359375 0.02591113117465156 0.859375 0.03983608994994363 0.07965588209837166 0.050690106789872874",
		"han":         "37 0.6110641891891891 0.06032794401496139 0.9298986486486487 0.05920602083892527 0.7972829653664291 0",
		"lora-key":    "5 0.51875 0.10288798520721455 0.596875 0.08805626752253357 0.06915578854904085 0.03294856941341737",
		"vehicle-key": "25 1 0 1 0 0.5793155061699756 0.2896577530849878",
	},
	"V2I-rural": {
		"gao":         "4 0.87890625 0.02789620479899551 0.91015625 0.05674155877474199 0.08436282058600271 0.05539704527750392",
		"han":         "37 0.6866554054054054 0.05834431094314372 0.9797297297297297 0.03790338795999471 0.8400074839464647 0",
		"lora-key":    "5 0.496875 0.1195695404356812 0.534375 0.11792476415070756 0.06191434472191615 0.02570712558629267",
		"vehicle-key": "25 1 0 1 0 0.5793155061699756 0.2896577530849878",
	},
	"V2V-urban": {
		"gao":         "4 0.8359375 0.02591113117465156 0.84765625 0.03000447557761175 0.07856966552430295 0.04960389021580417",
		"han":         "37 0.578125 0.05627814611134352 0.8986486486486487 0.08516596395915899 0.7704896232060676 0",
		"lora-key":    "5 0.471875 0.12861947267035423 0.515625 0.11048543456039805 0.05974191157377874 0.02353469243815526",
		"vehicle-key": "25 1 0 1 0 0.5793155061699756 0.2896577530849878",
	},
	"V2V-rural": {
		"gao":         "4 0.91796875 0.01295556558732578 0.96484375 0.02789620479899551 0.08943183126498999 0.06046605595649121",
		"han":         "37 0.6583614864864865 0.06283295625473367 0.9535472972972973 0.05320275590548522 0.8175590080823781 0",
		"lora-key":    "5 0.59375 0.090571104663684 0.515625 0.13184389443580616 0.05974191157377874 0.02425883682086773",
		"vehicle-key": "25 1 0 1 0 0.5793155061699756 0.2896577530849878",
	},
}

func streamLine(name string, alice, bob []float64, total float64) (string, error) {
	sys, err := core.NewScheme(name, core.DefaultConfig(), rng.New(1))
	if err != nil {
		return "", err
	}
	m, err := sys.EvaluateStream(alice, bob, total)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d %v %v %v %v %v %v",
		m.Blocks, m.PreKAR, m.PreKARStd, m.PostKAR, m.PostKARStd, m.KGR, m.NetKGR), nil
}

// TestStreamMetricsGolden locks the stream evaluation of every scheme
// to streamGoldens, bit for bit.
func TestStreamMetricsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("collects four long traces")
	}
	for _, sc := range trace.Scenarios() {
		ex := trace.NewCollector(sc, 5).Run(800)
		alice, bob := trace.PRSSI(ex)
		for _, name := range core.SchemeNames() {
			got, err := streamLine(name, alice, bob, totalDuration(ex))
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, name, err)
			}
			if want := streamGoldens[sc.Name][name]; got != want {
				t.Errorf("%s/%s: stream metrics\n got %q\nwant %q", sc.Name, name, got, want)
			}
		}
	}
}
