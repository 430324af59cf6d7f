package group

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"

	// Registers the training-free baseline schemes ("lora-key") the
	// e2e tests establish with.
	_ "repro/internal/baselines"
)

// platoonSeed roots every e2e platoon test's rng sub-streams.
const platoonSeed int64 = 91

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

// platoonDrive is the e2e tests' platoon: eight members on the shared
// lora-key template in the urban V2I scenario, with the default window
// count and the transport's timing profile.
func platoonDrive(t testing.TB, leavers map[uint64]bool,
	listen func() (transport.Listener, error), dial func(member uint64) (transport.Conn, error)) DriveConfig {
	return DriveConfig{
		Template: platoonSystem(t),
		Scenario: trace.NewScenario(channel.Urban, channel.V2I),
		Seed:     platoonSeed,
		Members:  8,
		Leavers:  leavers,
		Listen:   listen,
		Dial:     dial,
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
	const ep = "mem://group-platoon-e2e"
	leavers := map[uint64]bool{2: true, 5: true}
	res, err := Drive(platoonDrive(t, leavers,
		func() (transport.Listener, error) { return transport.Listen(ep) },
		func(uint64) (transport.Conn, error) { return transport.Dial(ep) }))
	if err != nil {
		t.Fatal(err)
	}
	checkPlatoonResult(t, res, 8, leavers)
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
	res, err := Drive(platoonDrive(t, leavers,
		func() (transport.Listener, error) { return m.Listen() },
		func(member uint64) (transport.Conn, error) { return m.Dial(fmt.Sprintf("veh-%d", member)) }))
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

// platoonLoraGolden is the SHA-256 of the JSON DriveResult of the
// lockstep platoon TestPlatoonEndToEndLora runs (8 members, leavers 1
// and 6), recorded before the drive configuration was folded into
// DriveConfig. Any change to the wire traffic, the timing profile or
// the key schedule moves it.
const platoonLoraGolden = "043674fbc1b8ea098faee247ea5bc853b9fa17b26b22aeb55936807c08594da2"

// TestPlatoonLoraGolden pins the lockstep platoon's accounting across
// refactors; TestPlatoonLoraDeterministic only compares two runs of
// the same tree.
func TestPlatoonLoraGolden(t *testing.T) {
	b, err := json.Marshal(runLoraPlatoon(t, map[uint64]bool{1: true, 6: true}))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != platoonLoraGolden {
		t.Fatalf("lockstep platoon digest %s, want %s\n%s", got, platoonLoraGolden, b)
	}
}

// TestHubRefusesHostileJoins sends the hub joins the platoon cannot
// serve — the wire cap's 4096 windows, and a member ID far outside the
// platoon — and checks both are refused and counted as failed
// establishments under the members they announced, while a conn that
// hangs up without a join is counted as unjoined, not as member 0.
// The session has no template: a join that got past the refusal to
// window derivation and cloning would crash the test.
func TestHubRefusesHostileJoins(t *testing.T) {
	const ep = "mem://group-hostile-joins"
	reg := obs.NewRegistry()
	hs := newHubSession(DriveConfig{Members: 4, Windows: 16, Recorder: reg}, pointToPoint)
	defer hs.close()
	l, err := transport.Listen(ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	joins := []frame{
		{Kind: kindJoin, Member: 1, Windows: MaxFrameWindows},
		{Kind: kindJoin, Member: 1 << 40, Windows: 16},
	}
	for _, fr := range joins {
		c, err := transport.Dial(ep)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		if err := c.Send(encodeFrame(fr)); err != nil {
			t.Fatal(err)
		}
	}
	silent, err := transport.Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	_ = silent.Close()
	outs, err := hs.establish(l, len(joins)+1)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.named && !errors.Is(o.err, ErrJoinRefused) {
			t.Errorf("join %d: err = %v, want ErrJoinRefused", i, o.err)
		}
	}
	var res DriveResult
	res.tally(outs)
	if want := []uint64{1, 1 << 40}; !slices.Equal(res.Failed, want) || len(res.Established) != 0 || res.Unjoined != 1 {
		t.Errorf("established %v, failed %v, unjoined %d; want none, %v, 1", res.Established, res.Failed, res.Unjoined, want)
	}
	if got := reg.Snapshot().Counters[groupEstablishFailed]; got != int64(len(joins)+1) {
		t.Errorf("%s = %d, want %d", groupEstablishFailed, got, len(joins)+1)
	}
	if hs.hub.Size() != 0 {
		t.Errorf("hub admitted %d members", hs.hub.Size())
	}
}
