package lora_test

// Regression test for the duty-cycle credit livelock: after a credit
// wait the refill lands within a few ulps of the required airtime, and
// the recomputed wait used to be too small to move the float64 clock,
// degenerating into an infinite zero-advance park/wake spin that also
// starved every other device on the medium. The full protocol stack
// under a tight duty budget must instead terminate with keys or clean
// timeouts.

import (
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
)

func TestDutyCycleContentionTerminates(t *testing.T) {
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	cfg := core.DefaultConfig()
	policy := protocol.RetryPolicy{Timeout: 4 * time.Second, MaxTimeout: 16 * time.Second, Backoff: 1.6, MaxRetries: 8}

	m, err := lora.NewMedium(lora.MediumConfig{Channels: 4, Lockstep: true, Seed: 5, DutyCycle: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	const vehicles, windows = 3, 8
	type session struct{ v, g *lora.Conn }
	sessions := make([]session, vehicles)
	for i := range sessions {
		v, g, err := m.Link(fmt.Sprintf("veh-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = session{v, g}
	}
	newScheme := func(i int) *core.System {
		sys, err := core.NewScheme("lora-key", cfg, rng.Stream(5, "duty/sys", i))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	var wg sync.WaitGroup
	for i := range sessions {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := sessions[i].v
			defer func() { _ = conn.Close() }()
			jitter := rng.Stream(5, "duty/jitter", i).Uniform(0, 2)
			if err := conn.Wait(time.Duration(jitter * float64(time.Second))); err != nil {
				return
			}
			_, _ = server.RunVehicle(conn, newScheme(i), sc, cfg, 5,
				server.Vehicle{ID: uint64(i), Windows: windows, HelloCopies: 2},
				protocol.WithRetryPolicy(policy))
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := sessions[i].g
			defer func() { _ = conn.Close() }()
			aliceWin, _, err := server.SessionWindowsFor(sc, cfg, 5, uint64(i), windows, trace.Alice)
			if err != nil {
				return
			}
			node := protocol.NewNode(newScheme(i), conn, server.SessionName(uint64(i)),
				protocol.WithRetryPolicy(policy))
			_, _ = node.RunAlice(aliceWin)
		}()
	}
	wg.Wait()

	s := m.Stats()
	if s.DutyWaits == 0 {
		t.Errorf("duty budget 0.02 produced no credit waits: %+v", s)
	}
	if s.Delivered == 0 {
		t.Errorf("medium carried no traffic under the duty cap: %+v", s)
	}
}
