package core

import (
	"bytes"
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
	"repro/internal/trace"
)

// smallConfig keeps clone/serialization tests cheap without changing
// the structure under test.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	cfg.AE.DecoderUnits = 8
	cfg.AEEpochs = 2
	cfg.AESamples = 40
	return cfg
}

// TestCloneEquivalentToSaveLoad is the contract Clone replaces
// exp.cloneSystem under: a clone must be byte-for-byte the system an
// explicit Save/Load round-trip produces — serialized forms equal,
// predictions equal — so no System field can silently drift out of the
// copy.
func TestCloneEquivalentToSaveLoad(t *testing.T) {
	src := rng.New(11)
	sys := New(smallConfig(), src)

	clone := sys.Clone()
	viaBlob := New(sys.Cfg, rng.New(99))
	var blob bytes.Buffer
	if err := sys.Save(&blob); err != nil {
		t.Fatal(err)
	}
	if err := viaBlob.Load(&blob); err != nil {
		t.Fatal(err)
	}

	serialize := func(s *System) []byte {
		var b bytes.Buffer
		if err := s.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	want := serialize(sys)
	if !bytes.Equal(serialize(clone), want) {
		t.Fatal("Clone() serializes differently from its source")
	}
	if !bytes.Equal(serialize(viaBlob), want) {
		t.Fatal("Save/Load round-trip serializes differently from its source")
	}

	seq := make([]float64, sys.Cfg.SeqLen)
	for i := range seq {
		seq[i] = src.Normal(0, 1)
	}
	predict := func(s *System) []byte {
		_, bits, err := s.Stages.Predictor.Predict(seq)
		if err != nil {
			t.Fatal(err)
		}
		return bits
	}
	orig := predict(sys)
	if !bytes.Equal(predict(clone), orig) {
		t.Fatal("clone predicts differently from its source")
	}
	if !bytes.Equal(predict(viaBlob), orig) {
		t.Fatal("round-tripped system predicts differently from its source")
	}
}

// TestCloneIsolation: training a clone must not touch the original (the
// property the experiment cache relies on when handing clones to
// concurrent workers).
func TestCloneIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 13, 60, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(14)
	train, _, _ := ds.Split(0.75, 0.05, src.Derive("split"))
	sys := New(smallConfig(), src.Derive("sys"))
	if _, err := sys.Train(train, 2, src.Derive("train")); err != nil {
		t.Fatal(err)
	}

	var before bytes.Buffer
	if err := sys.Save(&before); err != nil {
		t.Fatal(err)
	}
	clone := sys.Clone()
	if _, err := clone.FineTune(train, 2, src.Derive("ft")); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := sys.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("fine-tuning a clone mutated the original system")
	}
	var cloneBlob bytes.Buffer
	if err := clone.Save(&cloneBlob); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before.Bytes(), cloneBlob.Bytes()) {
		t.Fatal("fine-tuning left the clone unchanged; the test proves nothing")
	}
}

// FuzzSaveLoad feeds arbitrary bytes to System.Load: corrupt or
// truncated model blobs must surface as errors, never as panics, and a
// valid blob must round-trip.
func FuzzSaveLoad(f *testing.F) {
	cfg := smallConfig()
	var blob bytes.Buffer
	if err := New(cfg, rng.New(3)).Save(&blob); err != nil {
		f.Fatal(err)
	}
	valid := blob.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	for _, cut := range []int{1, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}
	// A bit flip in the middle exercises gob's internal decode paths.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		sys := New(cfg, rng.New(4))
		err := sys.Load(bytes.NewReader(data))
		if bytes.Equal(data, valid) && err != nil {
			t.Fatalf("valid blob failed to load: %v", err)
		}
		// Any other outcome is acceptable as long as it returns instead
		// of panicking; a partially applied load must still leave a
		// usable (serializable) system behind.
		var out bytes.Buffer
		if err := sys.Save(&out); err != nil {
			t.Fatalf("system unusable after Load: %v", err)
		}
	})
}
