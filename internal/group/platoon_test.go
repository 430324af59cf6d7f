package group

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/pipeline"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"

	// Registers the training-free baseline schemes ("lora-key") the
	// e2e tests establish with.
	_ "repro/internal/baselines"
)

// platoonSeed roots every e2e platoon test's rng sub-streams.
const platoonSeed int64 = 91

// platoonWindows matches the contention experiments' sessions: two
// reconciliation rounds of probing material per member, so a single
// failed round does not sink an establishment.
const platoonWindows = 16

func platoonScenario() trace.Scenario { return trace.NewScenario(channel.Urban, channel.V2I) }

// platoonTemplate shares one built scheme across the e2e tests;
// lora-key is training-free, so building it once is cheap and every
// session clones it.
var platoonTemplate = struct {
	sync.Mutex
	sys *core.System
}{}

func platoonSystem(t testing.TB) *core.System {
	t.Helper()
	platoonTemplate.Lock()
	defer platoonTemplate.Unlock()
	if platoonTemplate.sys == nil {
		sys, err := core.NewScheme("lora-key", core.DefaultConfig(), rng.New(platoonSeed).Derive("sys"))
		if err != nil {
			t.Fatal(err)
		}
		platoonTemplate.sys = sys
	}
	return platoonTemplate.sys
}

// platoonDrive assembles the shared DriveConfig pieces: hub Resolve
// and member configs over server.SessionWindows, cloned schemes, and
// the given timing profile.
func platoonDrive(t testing.TB, members int, leavers map[uint64]bool,
	retry protocol.RetryPolicy, tick time.Duration, joinCopies int) DriveConfig {
	t.Helper()
	sys := platoonSystem(t)
	sc := platoonScenario()
	sysCfg := core.DefaultConfig()
	return DriveConfig{
		Members: members,
		Leavers: leavers,
		Seed:    platoonSeed,
		Hub: HubConfig{
			Resolve: func(member uint64, n int) (pipeline.Scheme, [][]float64, error) {
				alice, _, err := server.SessionWindowsFor(sc, sysCfg, platoonSeed, member, n, trace.Alice)
				return sys.Clone(), alice, err
			},
			Retry: retry,
			Tick:  tick,
		},
		Member: func(member uint64) (MemberConfig, error) {
			_, bob, err := server.SessionWindowsFor(sc, sysCfg, platoonSeed, member, platoonWindows, trace.Bob)
			if err != nil {
				return MemberConfig{}, err
			}
			return MemberConfig{
				Scheme:     sys.Clone(),
				Windows:    bob,
				Retry:      retry,
				Tick:       tick,
				JoinCopies: joinCopies,
			}, nil
		},
	}
}

// checkPlatoonResult asserts the full e2e contract on one run:
// everyone establishes, two epochs complete, the leavers depart after
// epoch 1, and every member's accepted key digests agree with the
// hub's schedule.
func checkPlatoonResult(t *testing.T, res DriveResult, members int, leavers map[uint64]bool) {
	t.Helper()
	if len(res.Established) != members || len(res.Failed) != 0 {
		t.Fatalf("established %d of %d (failed %v)", len(res.Established), members, res.Failed)
	}
	if len(res.Rekeys) != 2 {
		t.Fatalf("want 2 rekey waves, got %d", len(res.Rekeys))
	}
	if res.Rekeys[0].Epoch != 1 || res.Rekeys[1].Epoch != 2 {
		t.Fatalf("epochs = %d, %d", res.Rekeys[0].Epoch, res.Rekeys[1].Epoch)
	}
	if got := len(res.Rekeys[0].Acked); got != members {
		t.Fatalf("epoch 1 acked by %d of %d: %+v", got, members, res.Rekeys[0])
	}
	survivors := members - len(leavers)
	if got := len(res.Rekeys[1].Members); got != survivors {
		t.Fatalf("epoch 2 addressed %d members, want %d survivors", got, survivors)
	}
	if got := len(res.Rekeys[1].Acked); got != survivors {
		t.Fatalf("epoch 2 acked by %d of %d survivors: %+v", got, survivors, res.Rekeys[1])
	}
	for _, m := range res.Rekeys[1].Members {
		if leavers[m] {
			t.Fatalf("departed member %d addressed in the post-leave wave", m)
		}
	}
	if res.LeavesSeen != len(leavers) {
		t.Fatalf("hub saw %d leaves, want %d", res.LeavesSeen, len(leavers))
	}
	if res.FinalEpoch != 2 {
		t.Fatalf("final epoch = %d", res.FinalEpoch)
	}
	if res.HubDigest == "" {
		t.Fatal("empty hub key digest")
	}
	if got := len(res.Accepted[1]); got != members {
		t.Fatalf("epoch 1 accepted by %d of %d members", got, members)
	}
	epoch1 := ""
	for _, d := range res.Accepted[1] {
		if epoch1 == "" {
			epoch1 = d
		}
		if d != epoch1 {
			t.Fatalf("epoch 1 digests disagree: %v", res.Accepted[1])
		}
	}
	if got := len(res.Accepted[2]); got != survivors {
		t.Fatalf("epoch 2 accepted by %d members, want %d survivors", got, survivors)
	}
	for m, d := range res.Accepted[2] {
		if leavers[m] {
			t.Fatalf("departed member %d accepted the post-leave key", m)
		}
		if d != res.HubDigest {
			t.Fatalf("member %d epoch-2 digest %s != hub %s", m, d, res.HubDigest)
		}
	}
	if epoch1 == res.HubDigest {
		t.Fatal("rekey after leave did not change the group key")
	}
}

// TestPlatoonEndToEndMem runs the full platoon session — 8 concurrent
// pairwise establishments, group rekey, two member leaves, rekey of
// the survivors — over the in-memory endpoint.
func TestPlatoonEndToEndMem(t *testing.T) {
	leavers := map[uint64]bool{2: true, 5: true}
	cfg := platoonDrive(t, 8, leavers,
		protocol.RetryPolicy{Timeout: 50 * time.Millisecond, MaxRetries: 8},
		20*time.Millisecond, 1)
	cfg.Endpoint = "mem://group-platoon-e2e"
	cfg.KeyWait = 30 * time.Second
	cfg.LeaveWait = 20 * time.Second
	res, err := Drive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPlatoonResult(t, res, 8, leavers)
}

// loraPlatoonPolicy mirrors the contention experiments' virtual-second
// ARQ profile: one protocol message is a multi-fragment burst of a
// second or two on the air.
var loraPlatoonPolicy = protocol.RetryPolicy{
	Timeout:    4 * time.Second,
	MaxTimeout: 16 * time.Second,
	Backoff:    1.6,
	MaxRetries: 8,
}

// runLoraPlatoon runs one 8-member platoon over a fresh lockstep
// shared medium and returns the drive accounting.
func runLoraPlatoon(t *testing.T, leavers map[uint64]bool) DriveResult {
	t.Helper()
	m, err := lora.NewMedium(lora.MediumConfig{
		Channels: 4,
		Lockstep: true,
		Seed:     rng.SubSeed(platoonSeed, "test/platoon-lora", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	cfg := platoonDrive(t, 8, leavers, loraPlatoonPolicy, 2*time.Second, 8)
	cfg.Listen = func() (transport.Listener, error) { return m.Listen() }
	cfg.Dial = func(member uint64) (transport.Conn, error) {
		return m.Dial(fmt.Sprintf("veh-%d", member))
	}
	// KeyWait stays 0: on a lockstep medium the virtual clock can run
	// arbitrarily far ahead of the hub's wall-scheduled control plane
	// between epochs, so member waits must be event-driven — any
	// idle-tick budget here turns Go scheduler noise into flaky member
	// deaths. Drive's teardown conn sweep bounds the run instead.
	cfg.LeaveWait = 60 * time.Second
	res, err := Drive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlatoonEndToEndLora runs the same churn session over the shared
// lockstep LoRa MAC — establishment contends for 4 hop channels with
// CAD, collisions, and capture — and checks the identical contract.
func TestPlatoonEndToEndLora(t *testing.T) {
	leavers := map[uint64]bool{1: true, 6: true}
	res := runLoraPlatoon(t, leavers)
	checkPlatoonResult(t, res, 8, leavers)
}

// TestPlatoonLoraDeterministic runs the lockstep platoon twice with
// the same seed and requires byte-identical accounting — the
// schedule-independence contract DESIGN.md §13 documents: results are
// counts, epochs, and key digests, never wall or virtual timing.
func TestPlatoonLoraDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("second full lockstep run")
	}
	leavers := map[uint64]bool{1: true, 6: true}
	a, err := json.Marshal(runLoraPlatoon(t, leavers))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(runLoraPlatoon(t, leavers))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("lockstep platoon runs diverged:\n%s\n%s", a, b)
	}
}
