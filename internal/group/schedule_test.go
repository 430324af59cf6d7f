package group

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/secure"
)

// TestRekeyDeterministicAcrossJoinOrder is the regression test for the
// map-iteration-order bug: the derivation must hash member IDs in
// sorted order, so the same entropy + member set yields the same group
// key regardless of join order or map layout.
func TestRekeyDeterministicAcrossJoinOrder(t *testing.T) {
	ids := []string{"car-4", "car-1", "car-9", "car-2", "car-7"}
	build := func(order []string) *Hub {
		hub := NewHub()
		for _, id := range order {
			key, _ := pairwise(t, id[len(id)-1])
			if err := hub.Join(id, key); err != nil {
				t.Fatal(err)
			}
		}
		return hub
	}
	reversed := append([]string(nil), ids...)
	sort.Sort(sort.Reverse(sort.StringSlice(reversed)))
	a := build(ids)
	b := build(reversed)
	for epoch := 1; epoch <= 3; epoch++ {
		entropy := []byte(fmt.Sprintf("entropy-%d", epoch))
		envsA, err := a.Rekey(entropy)
		if err != nil {
			t.Fatal(err)
		}
		envsB, err := b.Rekey(entropy)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.GroupKey(), b.GroupKey()) {
			t.Fatalf("epoch %d: same entropy and member set derived different group keys", epoch)
		}
		for i := range envsA {
			if envsA[i].MemberID != envsB[i].MemberID {
				t.Fatalf("epoch %d: envelope order diverged: %q vs %q",
					epoch, envsA[i].MemberID, envsB[i].MemberID)
			}
		}
	}
}

// TestRekeyEnvelopesSorted pins the envelope ordering contract: sorted
// member order, independent of join order.
func TestRekeyEnvelopesSorted(t *testing.T) {
	hub := NewHub()
	for _, id := range []string{"zz", "aa", "mm"} {
		key, _ := pairwise(t, id[0])
		if err := hub.Join(id, key); err != nil {
			t.Fatal(err)
		}
	}
	envs, err := hub.Rekey([]byte("e"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aa", "mm", "zz"}
	for i, env := range envs {
		if env.MemberID != want[i] {
			t.Fatalf("envelope %d is %q, want %q", i, env.MemberID, want[i])
		}
	}
}

// TestMemberStateRejectsReplay is the regression test for epoch
// replay: a member must reject any envelope at or below its current
// epoch, so a replayed older envelope cannot regress the group key.
func TestMemberStateRejectsReplay(t *testing.T) {
	hub := NewHub()
	key, ch := pairwise(t, 3)
	if err := hub.Join("m", key); err != nil {
		t.Fatal(err)
	}
	env1 := rekeyOne(t, hub, []byte("e1"))
	env2 := rekeyOne(t, hub, []byte("e2"))

	state, err := NewMemberState(ch)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := state.Accept(env1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := state.Accept(env1); err == nil {
		t.Fatal("replayed current-epoch envelope accepted")
	}
	k2, err := state.Accept(env2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("epochs 1 and 2 produced the same key")
	}
	if _, err := state.Accept(env1); err == nil {
		t.Fatal("replayed older envelope accepted: group key regressed")
	}
	if state.Epoch() != 2 {
		t.Fatalf("epoch = %d after replay attempts, want 2", state.Epoch())
	}
	if !bytes.Equal(state.Key(), k2) {
		t.Fatal("replay attempt changed the current key")
	}
}

// TestMemberStateRejectsSplicedHeader covers the cleartext-epoch
// integrity check: an attacker advancing the envelope header cannot
// make a member adopt an old key under a new epoch number.
func TestMemberStateRejectsSplicedHeader(t *testing.T) {
	hub := NewHub()
	key, ch := pairwise(t, 5)
	if err := hub.Join("m", key); err != nil {
		t.Fatal(err)
	}
	env := rekeyOne(t, hub, []byte("e"))
	env.Epoch = 9 // spliced: sealed payload still says epoch 1

	state, err := NewMemberState(ch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := state.Accept(env); err == nil {
		t.Fatal("spliced envelope header accepted")
	}
	if state.Epoch() != 0 {
		t.Fatalf("spliced envelope advanced the epoch to %d", state.Epoch())
	}
}

func rekeyOne(t *testing.T, hub *Hub, entropy []byte) Envelope {
	t.Helper()
	envs, err := hub.Rekey(entropy)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 {
		t.Fatalf("want 1 envelope, got %d", len(envs))
	}
	return envs[0]
}

// TestChurnStormAccounting hammers the hub with concurrent leaves and
// rekeys (run under -race via scripts/test-race.sh) and checks the
// churn contract: every envelope batch covers exactly one consistent
// member snapshot — unique sorted IDs, survivors always present — and
// after the storm the final batch addresses exactly the survivors,
// whom departed members' channels cannot impersonate.
func TestChurnStormAccounting(t *testing.T) {
	const members = 12
	const storms = 6 // members that leave mid-storm
	hub := NewHub()
	chans := make(map[string]*secure.Channel, members)
	initial := make([]string, 0, members)
	for i := 0; i < members; i++ {
		id := fmt.Sprintf("m%02d", i)
		key, ch := pairwise(t, byte(i+1))
		if err := hub.Join(id, key); err != nil {
			t.Fatal(err)
		}
		chans[id] = ch
		initial = append(initial, id)
	}
	survivors := initial[storms:]

	var mu sync.Mutex
	var batches [][]Envelope
	var wg sync.WaitGroup
	for i := 0; i < storms; i++ {
		id := initial[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := hub.Leave(id); err != nil {
				t.Errorf("leave %s: %v", id, err)
			}
		}()
	}
	for i := 0; i < 5; i++ {
		entropy := []byte(fmt.Sprintf("storm-%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			envs, err := hub.Rekey(entropy)
			if err != nil {
				t.Errorf("rekey: %v", err)
				return
			}
			mu.Lock()
			batches = append(batches, envs)
			mu.Unlock()
		}()
	}
	wg.Wait()

	surviving := map[string]bool{}
	for _, id := range survivors {
		surviving[id] = true
	}
	for _, envs := range batches {
		seen := map[string]bool{}
		for i, env := range envs {
			if seen[env.MemberID] {
				t.Fatalf("member %s sealed twice in one batch", env.MemberID)
			}
			seen[env.MemberID] = true
			if i > 0 && envs[i-1].MemberID >= env.MemberID {
				t.Fatalf("batch not in sorted member order at %d", i)
			}
			if chans[env.MemberID] == nil {
				t.Fatalf("batch addresses unknown member %s", env.MemberID)
			}
		}
		for _, id := range survivors {
			if !seen[id] {
				t.Fatalf("survivor %s missing from a batch of %d", id, len(envs))
			}
		}
	}

	final, err := hub.Rekey([]byte("final"))
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(survivors) {
		t.Fatalf("final batch has %d envelopes, want %d survivors", len(final), len(survivors))
	}
	groupKey := hub.GroupKey()
	for i, env := range final {
		if env.MemberID != survivors[i] {
			t.Fatalf("final envelope %d addresses %s, want %s", i, env.MemberID, survivors[i])
		}
		epoch, key, err := OpenEnvelope(chans[env.MemberID], env)
		if err != nil {
			t.Fatalf("survivor %s cannot open its envelope: %v", env.MemberID, err)
		}
		if epoch != hub.Epoch() || !bytes.Equal(key, groupKey) {
			t.Fatalf("survivor %s opened a wrong key or epoch", env.MemberID)
		}
		secure.Wipe(key)
	}
	// Departed members hold no envelope in the final batch, and their
	// channels cannot open anyone else's.
	for i := 0; i < storms; i++ {
		departed := initial[i]
		for _, env := range final {
			if env.MemberID == departed {
				t.Fatalf("departed member %s received a post-leave envelope", departed)
			}
			if _, _, err := OpenEnvelope(chans[departed], env); err == nil {
				t.Fatalf("departed member %s opened %s's envelope", departed, env.MemberID)
			}
		}
	}
}

// TestHubClosedRejectsUse pins the closed-hub contract.
func TestHubClosedRejectsUse(t *testing.T) {
	hub := NewHub()
	key, _ := pairwise(t, 1)
	if err := hub.Join("a", key); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Rekey([]byte("e")); err != nil {
		t.Fatal(err)
	}
	hub.Close()
	if hub.GroupKey() != nil {
		t.Fatal("closed hub still exposes a group key")
	}
	if _, err := hub.Rekey([]byte("e")); err == nil {
		t.Fatal("closed hub accepted a rekey")
	}
	if err := hub.Join("b", key); err == nil {
		t.Fatal("closed hub accepted a join")
	}
}
