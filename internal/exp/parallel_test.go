package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"
)

// equivConfig is the configuration the scheduling-equivalence tests run
// at: exp.Quick(), or a further-reduced variant when VK_EQUIV_FAST is
// set (scripts/test-race.sh sets it — the race detector needs the
// engine's scheduling exercised, not full-size models, and Quick-size
// training under -race costs tens of minutes on small runners).
func equivConfig() RunConfig {
	cfg := Quick()
	if os.Getenv("VK_EQUIV_FAST") != "" {
		cfg.Samples = 64
		cfg.Epochs = 3
	}
	return cfg
}

// reportDigests is the SHA-256 of every report's Markdown at
// equivConfig() (exp.Quick()), the repo's behaviour contract for the
// figures: a change that keeps them leaves every report byte-identical.
// A change that moves a report on purpose updates its digest here and
// records in EXPERIMENTS.md which rows moved and why.
var reportDigests = map[string]string{
	"ablate-bloom": "e1d67a6f5cd46b6034579d5c4333246606ce9eb74899458eb3a9bccd0a5925b6",
	"ablate-theta": "9818efe71e05da9c0f5b96f1582be6b7c9d44c194d732990e7dc3ac7858276d0",
	"airtime":      "c1cc2a5b740bf88f695d63a817a422b54c2aee297eb8f8be87848aac13affff4",
	"density":      "61632f7494f131fe9ecd1b8d637e3f74cd6d6f3376be6be4cfbb4eac2dfef186",
	"fig10":        "95f1ea66919830dffee190eaeac620446c5e493afd1f105599aa46128c054127",
	"fig11":        "439646a2a4ccb26223d3ddbfd79645bfed3d47b7690bc34e2d17dc1f87cf404e",
	"fig12":        "e2217b3060d545f556aa418af57a410d95c4de441a089a08bbcba3ceb3ffb989",
	"fig13":        "685fc4c64d7fcb12d7bfa2535f1d0509ed7f1440c094ca2d3a7bf12fbe460dce",
	"fig14":        "4b320f94eda43eecbbdf5262e3d87ba001f1950d551aa2e58b7210d690abe867",
	"fig15":        "f0766e325227ea5071641e448393e7af9db10c65e16acb23727bd68c01283cc6",
	"fig16":        "369572dbaf54c8922b45e6f4289aa5b978b944104317efd822bd1ece2657fdad",
	"fig17":        "fbfe31da8a108a1aaf4ec981c845cbc2cb1fbd1c551a5d8b53e79f47f21274a8",
	"fig2a":        "ce04ff91228f8cb3fa559e0d72c1c2de44e7ab373802245c82e1f728ccc3758b",
	"fig2b":        "fc29420e53488eb94e7626a8647cfcddce6aa8a4bfc047d79f1a7ce46e3e6d67",
	"fig3":         "2564e77d3bad3eae176310f1ff53569819a101ebbc55b3c60e20897b48efb865",
	"fig4":         "928ac50bed3063b763cc3342f3d2ababd10800f0a515fedf7370e42f371df29c",
	"fig9":         "c94fa63d5be702b4babd5d841f065c0bc41d7015506df19c4196f5dad14a29b7",
	"platoon":      "23a3aaf56fc023890bc9a19871a0581de810b9034bb246107f8d0b2db0a11321",
	"schemes":      "b196e5a8399baade8eb2e977087a7427e797de0ecf84c23e272bf4ae6720e8be",
	"tab1":         "0fdc5ad286a39ba6d23c271ca0982f1a7b2a38de5113db53f54d4dda415272fa",
	"tab2":         "f18471f302651a38a8da0fdc2e04b2e2280eb3dc2b0f669a32f14c1807f2eb77",
	"tab3":         "5620b3819f375d801e61dae2a47253d6dccc6b7486ab40f0614d5fa83602267b",
}

// TestParallelEquivalence is the engine's determinism contract: for
// every registered experiment, the report produced with eight workers is
// byte-identical (via Report.Markdown) to the one produced serially.
// Units of work draw only from (seed, experiment, index) sub-streams, so
// neither worker count nor goroutine scheduling may leak into a report.
// scripts/test-race.sh runs this test under -race, which additionally
// turns any shared-state shortcut between workers into a hard failure.
// The serial report's digest is checked against reportDigests, except
// under VK_EQUIV_FAST, whose reduced configuration moves every report.
func TestParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment sweep twice")
	}
	serial := equivConfig()
	serial.Parallelism = 1
	parallel := equivConfig()
	parallel.Parallelism = 8
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			a, err := Run(id, serial)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			if os.Getenv("VK_EQUIV_FAST") == "" {
				sum := sha256.Sum256([]byte(a.Markdown()))
				if got, want := hex.EncodeToString(sum[:]), reportDigests[id]; got != want {
					t.Errorf("report digest %s, want %s:\n%s", got, want, a.Markdown())
				}
			}
			b, err := Run(id, parallel)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if am, bm := a.Markdown(), b.Markdown(); am != bm {
				t.Errorf("Parallelism=8 report differs from Parallelism=1:\n--- serial ---\n%s\n--- parallel ---\n%s", am, bm)
			}
		})
	}
}

// TestParallelEquivalenceColdCache re-proves equivalence for one
// training experiment with the trained-system cache dropped between the
// two runs, so the parallel run's *training* path (not just its
// evaluation path) is shown to be schedule-independent. The main sweep
// above shares the cache for speed, which would otherwise let a
// nondeterministic parallel training hide behind a serial run's cached
// weights.
func TestParallelEquivalenceColdCache(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models twice")
	}
	cfg := equivConfig()
	cfg.Parallelism = 1
	resetCaches()
	a, err := Run("fig15", cfg)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	cfg.Parallelism = 8
	resetCaches()
	b, err := Run("fig15", cfg)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if a.Markdown() != b.Markdown() {
		t.Errorf("cold-cache parallel report differs:\n--- serial ---\n%s\n--- parallel ---\n%s", a.Markdown(), b.Markdown())
	}
	if keys := cachedTrainKeys(); len(keys) == 0 {
		t.Error("expected the cold-cache run to repopulate the training cache")
	}
}

// TestRunAllMatchesRun checks that cross-experiment concurrency changes
// nothing: RunAll's reports equal the per-ID serial ones, in input
// order. Restricted to the training-free runners to stay cheap.
func TestRunAllMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ids := []string{"fig2a", "fig2b", "fig3", "fig4", "fig9", "fig16"}
	par := equivConfig()
	par.Parallelism = 8
	reps, err := RunAll(ids, par)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(reps) != len(ids) {
		t.Fatalf("RunAll returned %d reports for %d ids", len(reps), len(ids))
	}
	serial := equivConfig()
	serial.Parallelism = 1
	for i, id := range ids {
		if reps[i].ID != id {
			t.Errorf("report %d is %q, want %q (input order must be preserved)", i, reps[i].ID, id)
		}
		want, err := Run(id, serial)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if reps[i].Markdown() != want.Markdown() {
			t.Errorf("%s: RunAll report differs from serial Run", id)
		}
	}
}

// TestUnknownIDError pins the stable not-found contract: the error wraps
// ErrUnknownID, lists every valid ID, and renders identically on every
// call, from both Run and RunAll.
func TestUnknownIDError(t *testing.T) {
	_, err := Run("nope", Quick())
	if err == nil {
		t.Fatal("Run with an unknown ID did not error")
	}
	if !errors.Is(err, ErrUnknownID) {
		t.Errorf("error does not wrap ErrUnknownID: %v", err)
	}
	msg := err.Error()
	for _, id := range IDs() {
		if !strings.Contains(msg, id) {
			t.Errorf("error message does not list valid ID %q: %s", id, msg)
		}
	}
	if _, again := Run("nope", Quick()); again == nil || again.Error() != msg {
		t.Errorf("error message is not stable across calls:\n%s\nvs\n%v", msg, again)
	}
	_, err2 := RunAll([]string{"fig4", "nope"}, Quick())
	if err2 == nil || err2.Error() != msg {
		t.Errorf("RunAll unknown-ID error differs from Run's:\n%v\nvs\n%s", err2, msg)
	}
}
