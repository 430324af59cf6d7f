package vehiclekey

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
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
// before the pipeline-stage refactor; WithScheme("") and
// WithScheme("vehicle-key") must both land on it.
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
