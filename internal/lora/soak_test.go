package lora_test

// The contention soak: N vehicles establish keys against one gateway
// over a single shared lockstep medium, with the full serving stack in
// the loop — hello redundancy, the ARQ protocol, reconciliation — and
// the run must be byte-reproducible: the same seed produces the same
// keys, the same outcome sequence, and the same MAC counters on every
// run at any GOMAXPROCS. scripts/test-race.sh runs this package under
// -race, which is the "-j 1 vs -j 8" half of the determinism claim:
// the scheduler serializes devices regardless of how the runtime
// schedules their goroutines.

import (
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/trace"

	// Registers the training-free baseline schemes (the soak uses
	// lora-key so no predictor training is needed).
	_ "repro/internal/baselines"
)

const soakSeed int64 = 33

// soakPolicy works in virtual seconds: a medium round trip is a few
// seconds of airtime, so the initial deadline must sit above it.
var soakPolicy = protocol.RetryPolicy{
	Timeout:    4 * time.Second,
	MaxTimeout: 16 * time.Second,
	Backoff:    1.6,
	MaxRetries: 8,
}

// soakTranscript runs the scenario once and serializes everything
// observable about it.
func soakTranscript(t *testing.T, vehicles, windows int) string {
	t.Helper()
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	cfg := core.DefaultConfig()

	m, err := lora.NewMedium(lora.MediumConfig{
		Channels: 4,
		Lockstep: true,
		Seed:     soakSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	// All links exist before any goroutine starts: under lockstep the
	// clock is frozen until every endpoint is driven, so creation order
	// (not goroutine start order) is what must be deterministic.
	type session struct {
		vconn, gconn *lora.Conn
	}
	sessions := make([]session, vehicles)
	for i := range sessions {
		v, g, err := m.Link(fmt.Sprintf("veh-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = session{vconn: v, gconn: g}
	}

	// newScheme builds one lora-key instance from a per-vehicle stream;
	// both endpoints of a session construct from the same stream index,
	// so their quantizer state matches exactly (the cross-process
	// discipline vkproto uses).
	newScheme := func(vehicle int) *core.System {
		sys, err := core.NewScheme("lora-key", cfg, rng.Stream(soakSeed, "lora/soak/sys", vehicle))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	vehicleOut := make([][]protocol.KeyOutcome, vehicles)
	vehicleErr := make([]error, vehicles)
	gatewayOut := make([][]protocol.KeyOutcome, vehicles)

	var wg sync.WaitGroup
	for i := range sessions {
		i := i
		wg.Add(1)
		go func() { // vehicle side: hello + RunBob via the serving client
			defer wg.Done()
			conn := sessions[i].vconn
			defer func() { _ = conn.Close() }()
			// Staggered ignition, from the seed so it reproduces.
			jitter := rng.Stream(soakSeed, "lora/soak/jitter", i).Uniform(0, 2)
			if err := conn.Wait(time.Duration(jitter * float64(time.Second))); err != nil {
				vehicleErr[i] = err
				return
			}
			vehicleOut[i], vehicleErr[i] = server.RunVehicle(conn, newScheme(i), sc, cfg, soakSeed,
				server.Vehicle{ID: uint64(i), Windows: windows, HelloCopies: 2},
				protocol.WithRetryPolicy(soakPolicy))
		}()
		wg.Add(1)
		go func() { // gateway side: windows from the shared derivation + RunAlice
			defer wg.Done()
			conn := sessions[i].gconn
			defer func() { _ = conn.Close() }()
			aliceWin, _, err := server.SessionWindowsFor(sc, cfg, soakSeed, uint64(i), windows, trace.Alice)
			if err != nil {
				return
			}
			node := protocol.NewNode(newScheme(i), conn, server.SessionName(uint64(i)),
				protocol.WithRetryPolicy(soakPolicy))
			// The hello copies land as garbage envelopes; the ARQ layer
			// counts and skips them, exactly as the real server's worker
			// does after its own hello decode.
			gatewayOut[i], _ = node.RunAlice(aliceWin)
		}()
	}
	wg.Wait()

	confirmed := 0
	out := ""
	for i := 0; i < vehicles; i++ {
		out += fmt.Sprintf("veh%d err=%v\n", i, vehicleErr[i])
		for r, ko := range vehicleOut[i] {
			out += fmt.Sprintf("veh%d round%d confirmed=%v key=%s\n", i, r, ko.Confirmed, hex.EncodeToString(ko.Key))
			if ko.Confirmed {
				confirmed++
			}
		}
		for r, ko := range gatewayOut[i] {
			out += fmt.Sprintf("gw%d round%d confirmed=%v key=%s\n", i, r, ko.Confirmed, hex.EncodeToString(ko.Key))
		}
	}
	s := m.Stats()
	out += fmt.Sprintf("stats=%+v\n", s)

	if confirmed == 0 {
		t.Fatalf("no vehicle confirmed a key; transcript:\n%s", out)
	}
	if s.Delivered == 0 || s.Frames == 0 {
		t.Fatalf("medium carried no traffic: %+v", s)
	}
	return out
}

// TestContentionSoakDeterministic is the headline determinism check:
// two full protocol soaks over fresh media produce identical bytes.
func TestContentionSoakDeterministic(t *testing.T) {
	vehicles, windows := 4, 8
	if testing.Short() {
		vehicles = 2
	}
	first := soakTranscript(t, vehicles, windows)
	second := soakTranscript(t, vehicles, windows)
	if first != second {
		t.Fatalf("soak diverged between runs:\n--- run 1\n%s\n--- run 2\n%s", first, second)
	}
}
