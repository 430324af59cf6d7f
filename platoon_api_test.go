package vehiclekey

import "testing"

// TestRunPlatoonMem drives the public platoon API end to end over the
// default in-memory endpoint: everyone establishes, the leaver departs
// after epoch 1, and the survivors agree on the epoch-2 key.
func TestRunPlatoonMem(t *testing.T) {
	opts := quickOptions(11)
	opts.Scheme = "lora-key" // training-free: the platoon run is the point
	session, err := SetupWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := session.RunPlatoon(PlatoonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Established) != 4 || len(rep.Failed) != 0 {
		t.Fatalf("established %v failed %v", rep.Established, rep.Failed)
	}
	if len(rep.Rekeys) != 2 || rep.FinalEpoch != 2 {
		t.Fatalf("rekeys %+v final epoch %d", rep.Rekeys, rep.FinalEpoch)
	}
	if got := len(rep.Rekeys[1].Acked); got != 3 {
		t.Fatalf("epoch 2 acked by %d of 3 survivors: %+v", got, rep.Rekeys[1])
	}
	if rep.LeavesSeen != 1 {
		t.Fatalf("leaves seen = %d", rep.LeavesSeen)
	}
	for m, d := range rep.Accepted[2] {
		if m == 1 {
			t.Fatalf("departed member 1 accepted the epoch-2 key")
		}
		if d != rep.HubDigest {
			t.Fatalf("member %d digest %s != hub %s", m, d, rep.HubDigest)
		}
	}
}

// TestRunPlatoonLeaverBounds rejects a leaver outside the platoon.
func TestRunPlatoonLeaverBounds(t *testing.T) {
	opts := quickOptions(12)
	opts.Scheme = "lora-key"
	session, err := SetupWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.RunPlatoon(PlatoonConfig{Members: 2, Leavers: []uint64{5}}); err == nil {
		t.Fatal("want an error for a leaver outside the platoon")
	}
}
