// v2v_platoon runs the full interactive key-establishment protocol
// between two simulated platooning vehicles: Alice and Bob execute the
// real message flow (kept indices → final indices → syndrome+MAC →
// confirmation) over an in-memory link while driving an urban route.
package main

import (
	"encoding/hex"
	"fmt"
	"log"
	"sync"

	vehiclekey "repro"
	"repro/internal/protocol"
	"repro/internal/transport"
)

func main() {
	fmt.Println("training the shared prediction model on the V2V-urban drive...")
	session, err := vehiclekey.SetupWith(vehiclekey.Options{
		Link:            vehiclekey.V2V,
		TrainingWindows: 240,
		TrainingEpochs:  18,
		Seed:            7,
	})
	if err != nil {
		log.Fatal(err)
	}

	aliceWin, bobWin := session.Windows(24)
	connA, connB := transport.Pair()
	// The in-memory pair's Close is best-effort cleanup at exit.
	defer func() { _ = connA.Close() }()
	defer func() { _ = connB.Close() }()

	alice := protocol.NewNode(session.System(), connA, "platoon-42")
	bob := protocol.NewNode(session.System(), connB, "platoon-42")

	var aliceKeys, bobKeys []protocol.KeyOutcome
	var aliceErr, bobErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); bobKeys, bobErr = bob.RunBob(bobWin) }()
	go func() { defer wg.Done(); aliceKeys, aliceErr = alice.RunAlice(aliceWin) }()
	wg.Wait()
	if aliceErr != nil || bobErr != nil {
		log.Fatalf("protocol: alice=%v bob=%v", aliceErr, bobErr)
	}

	confirmed := 0
	for i := range aliceKeys {
		if !aliceKeys[i].Confirmed {
			fmt.Printf("block %d: rejected by key confirmation (regenerated next rounds)\n", i)
			continue
		}
		confirmed++
		match := "MATCH"
		if hex.EncodeToString(aliceKeys[i].Key) != hex.EncodeToString(bobKeys[i].Key) {
			match = "DIVERGED (bug!)"
		}
		fmt.Printf("block %d: %s  %s\n", i, hex.EncodeToString(aliceKeys[i].Key), match)
	}
	fmt.Printf("%d/%d blocks confirmed into shared AES-128 keys\n", confirmed, len(aliceKeys))
}
