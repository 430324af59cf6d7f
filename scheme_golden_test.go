package vehiclekey

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"
)

// goldenKeys pins the default scheme's output: the exact keys the
// pre-refactor (monolithic BiLSTM→multi-bit→autoencoder→SHA) pipeline
// produced at seed 1 across Urban/Rural × V2I/V2V. The pluggable-stage
// System must reproduce them byte for byte; any drift here means the
// refactor changed the default scheme's behavior, not just its shape.
var goldenKeys = []struct {
	env    Environment
	link   LinkType
	name   string
	agreed []bool
	hex    []string
}{
	{Urban, V2I, "urban-v2i", []bool{true, true},
		[]string{"89f134c536cf5b802b02ad2eb437d563", "2c5e4ed4b1b6ca496af9bcec3ce0d0f4"}},
	{Urban, V2V, "urban-v2v", []bool{false, false},
		[]string{"9ff1b1d07aee6057aafff2517deee077", "ccb6640fa0eda330d8af3df387106960"}},
	{Rural, V2I, "rural-v2i", []bool{true, true},
		[]string{"77a5a73e78aa4fcd3146899ca75c88a5", "266ee3916a231c77302c4db87a56a297"}},
	{Rural, V2V, "rural-v2v", []bool{false, true},
		[]string{"113adad9ec8b6a5d415b5c72aff62882", "a4cb022c9c54850cfb7bdc6fdf7f22db"}},
}

// TestDefaultSchemeGoldenKeys locks the default scheme to its
// pre-refactor output at seed 1 (120 training windows, 6 epochs, two
// keys per scenario). The table was captured from the last commit
// before the pipeline-stage refactor; Scheme "" and "vehicle-key" must
// both land on it.
func TestDefaultSchemeGoldenKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four models")
	}
	for _, g := range goldenKeys {
		g := g
		t.Run(g.name, func(t *testing.T) {
			s, err := SetupWith(Options{
				Environment:     g.env,
				Link:            g.link,
				Seed:            1,
				TrainingWindows: 120,
				TrainingEpochs:  6,
				Scheme:          "vehicle-key", // explicit name must equal the "" default
			})
			if err != nil {
				t.Fatal(err)
			}
			keys, _, err := s.GenerateKeys(len(g.hex))
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(g.hex) {
				t.Fatalf("generated %d keys, want %d", len(keys), len(g.hex))
			}
			for i, k := range keys {
				if got := hex.EncodeToString(k.Bits); got != g.hex[i] {
					t.Errorf("key %d = %s, want golden %s", i, got, g.hex[i])
				}
				if k.Agreed != g.agreed[i] {
					t.Errorf("key %d agreed = %t, want %t", i, k.Agreed, g.agreed[i])
				}
			}
		})
	}
}

// baselineGoldens pins the training-free baselines' in-process path at
// seed 1, Urban V2I: GenerateKeys' keys, verdicts and post-reconciliation
// agreement, and the exact metrics of GenerateKeys, Evaluate and both
// EvaluateAttack positions (see metricsLine). lora-key and gao reconcile
// with compressed sensing, han with interactive Cascade. The values were
// captured while each scheme's local reconciliation was still a separate
// implementation from its wire halves.
var baselineGoldens = []struct {
	scheme    string
	hex       []string
	agreed    []bool
	agreement []float64
	gen       string
	eval      string
	eve       [2]string // EvaluateAttack(false), EvaluateAttack(true)
}{
	{"lora-key",
		[]string{"1b5563360dd2ccc20188cf09e77e20ea", "6d13b18cae32ae09536422fa6344ef23", "3223c0e1e36b83d0a67eb04aa70148f1", "e61c0071ac03264a22e954f429b094de"},
		[]bool{true, true, true, true},
		[]float64{1, 1, 1, 1},
		"4 0.98046875 0.02029747040119778 1 0 1 0.40300256228800463 0.2770642615730032",
		"4 0.98046875 0.02029747040119778 1 0 1 0.3862180819847722 0.26552493136453087",
		[2]string{
			"3 0.828125 0.12303137303143455 0.8541666666666666 0.11853965288271918 0 0 0",
			"2 0.6953125 0.0703125 0.75 0.078125 0 0 0",
		}},
	{"gao",
		[]string{"69f6df51308e9591897dda9c77c35aeb", "bd484a3b8fa3fb47d9ee608eb72e08a9", "20ca33c47f4cfb2bc5a045e18024cc97"},
		[]bool{false, false, false},
		[]float64{0.765625, 0.9375, 0.8125},
		"3 0.84375 0.05846339666834283 0.8385416666666666 0.07254368894366729 0 0.24289496562323562 0.15237510265805465",
		"3 0.84375 0.05846339666834283 0.8385416666666666 0.07254368894366729 0 0.24289496562323562 0.15237510265805465",
		[2]string{
			"3 0.6197916666666666 0.10390592366281252 0.59375 0.12170126505779086 0 0 0",
			"3 0.5833333333333334 0.02655739329996242 0.6041666666666666 0.03210632293213009 0 0 0",
		}},
	{"han",
		[]string{"304a20b87e4a3c2484c0f668a48eceea", "213d801070b8a89c5e04e752c65b5d2d", "e7d17ee58e85d27f3f602095579eda05", "b104f2aabb2aea35eba71629aa5110f6"},
		[]bool{true, false, true, true},
		[]float64{1, 0.96875, 1, 1},
		"4 0.80078125 0.08655671799281382 0.9921875 0.013531646934131853 0.75 3.065206906514301 0.20515164334938232",
		"36 0.6749131944444444 0.10512704706127392 0.9539930555555556 0.06648988243081484 0.5277777777777778 3.31604431329113 0.03319061642056636",
		[2]string{
			"36 0.5416666666666666 0.09936866681426516 0.8532986111111112 0.10820792130977336 0.16666666666666666 0 0",
			"36 0.5364583333333334 0.06577776531414108 0.8524305555555556 0.08671870655376511 0.05555555555555555 0 0",
		}},
}

// metricsLine prints every Metrics field at full precision (%v prints
// the shortest exact float), unlike Metrics.String's rounded percentages.
func metricsLine(m Metrics) string {
	return fmt.Sprintf("%d %v %v %v %v %v %v %v",
		m.Blocks, m.PreKAR, m.PreKARStd, m.PostKAR, m.PostKARStd, m.ExactRate, m.KGR, m.NetKGR)
}

// TestBaselineSchemeGoldenKeys locks the baselines' in-process key
// generation, evaluation and eavesdropper metrics to baselineGoldens.
func TestBaselineSchemeGoldenKeys(t *testing.T) {
	for _, g := range baselineGoldens {
		g := g
		t.Run(g.scheme, func(t *testing.T) {
			s, err := SetupWith(Options{Environment: Urban, Link: V2I, Seed: 1,
				TrainingWindows: 120, TrainingEpochs: 6, Scheme: g.scheme})
			if err != nil {
				t.Fatal(err)
			}
			keys, m, err := s.GenerateKeys(4)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(g.hex) {
				t.Fatalf("generated %d keys, want %d", len(keys), len(g.hex))
			}
			for i, k := range keys {
				if got := hex.EncodeToString(k.Bits); got != g.hex[i] || k.Agreed != g.agreed[i] || k.Agreement != g.agreement[i] {
					t.Errorf("key %d = %s agreed=%t agreement=%v, want %s %t %v",
						i, got, k.Agreed, k.Agreement, g.hex[i], g.agreed[i], g.agreement[i])
				}
			}
			if got := metricsLine(m); got != g.gen {
				t.Errorf("GenerateKeys metrics %q, want %q", got, g.gen)
			}
			ev, err := s.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			if got := metricsLine(ev); got != g.eval {
				t.Errorf("Evaluate metrics %q, want %q", got, g.eval)
			}
			for i, imitate := range []bool{false, true} {
				eve, err := s.EvaluateAttack(imitate)
				if err != nil {
					t.Fatal(err)
				}
				if got := metricsLine(eve); got != g.eve[i] {
					t.Errorf("EvaluateAttack(%t) metrics %q, want %q", imitate, got, g.eve[i])
				}
			}
		})
	}
}

// TestSchemesRegistered guards the public registry surface: the three
// baselines and the default scheme are always constructible by name,
// and an unknown name fails with the typed error.
func TestSchemesRegistered(t *testing.T) {
	want := map[string]bool{"vehicle-key": true, "lora-key": true, "han": true, "gao": true}
	got := map[string]bool{}
	for _, name := range Schemes() {
		got[name] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("scheme %q not registered (have %v)", name, Schemes())
		}
	}
	_, err := SetupWith(Options{Scheme: "no-such-scheme", TrainingWindows: 40, TrainingEpochs: 1})
	var unknown *ErrUnknownScheme
	if err == nil || !errors.As(err, &unknown) {
		t.Fatalf("SetupWith with bogus scheme: err = %v, want *ErrUnknownScheme", err)
	}
	if unknown.Name != "no-such-scheme" || len(unknown.Known) == 0 {
		t.Errorf("ErrUnknownScheme fields = %+v", unknown)
	}
}

// setupWeightsGolden is the SHA-256 of every trained weight's
// math.Float64bits that SetupWith produces with cmd/vkperf's options
// (seed 21, 160 training windows, 12 epochs): tensor names in save
// order, then each value as 8 big-endian bytes. It was captured before
// training moved onto the batched kernels and the reconciler fit onto
// its own goroutine, both of which must leave every weight bit alone.
const setupWeightsGolden = "a2f6ac1eb731c70c61b191e75f5503c5d9b65dadd5233dd52216b4dde0d59b52"

// TestSetupWeightsGolden pins the trained weights themselves, not only
// the keys they produce.
func TestSetupWeightsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	s, err := SetupWith(Options{Seed: 21, TrainingWindows: 160, TrainingEpochs: 12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	// SaveModel writes one gob stream per trained stage (predictor,
	// then reconciler), each a list of named tensors.
	var snap struct {
		Names   []string
		Weights [][]float64
	}
	h := sha256.New()
	r := bytes.NewReader(buf.Bytes())
	tensors := 0
	for r.Len() > 0 {
		snap.Names, snap.Weights = nil, nil
		if err := gob.NewDecoder(r).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		for i, name := range snap.Names {
			h.Write([]byte(name))
			for _, v := range snap.Weights[i] {
				h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		tensors += len(snap.Names)
	}
	if tensors == 0 {
		t.Fatal("saved model holds no tensors")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != setupWeightsGolden {
		t.Errorf("weights digest over %d tensors = %s, want golden %s", tensors, got, setupWeightsGolden)
	}
}
