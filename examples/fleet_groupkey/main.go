// fleet_groupkey extends Vehicle-Key to a platoon: the roadside unit
// establishes pairwise keys with three vehicles over their individual
// channels, then distributes and rotates a shared group key sealed under
// each pairwise key. When a vehicle leaves the platoon, a rekey locks it
// out of future traffic.
package main

import (
	"encoding/hex"
	"fmt"
	"log"

	vehiclekey "repro"
	"repro/internal/group"
	"repro/internal/secure"
)

func main() {
	hub := group.NewHub()
	memberChannels := map[string]*secure.Channel{}

	for i, id := range []string{"car-alpha", "car-bravo", "car-charlie"} {
		fmt.Printf("establishing pairwise key with %s...\n", id)
		session, err := vehiclekey.SetupWith(vehiclekey.Options{
			Seed:            int64(100 + i),
			TrainingWindows: 160,
			TrainingEpochs:  12,
		})
		if err != nil {
			log.Fatal(err)
		}
		keys, _, err := session.GenerateKeys(1)
		if err != nil {
			log.Fatal(err)
		}
		if len(keys) == 0 || !keys[0].Agreed {
			log.Fatalf("%s: no agreed pairwise key this window", id)
		}
		if err := hub.Join(id, keys[0].Bits); err != nil {
			log.Fatal(err)
		}
		ch, err := secure.NewChannel(keys[0].Bits)
		if err != nil {
			log.Fatal(err)
		}
		memberChannels[id] = ch
	}

	envs, err := hub.Rekey([]byte("platoon-epoch-1"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngroup key (hub): %s\n", hex.EncodeToString(hub.GroupKey()))
	for _, env := range envs {
		epoch, key, err := group.OpenEnvelope(memberChannels[env.MemberID], env)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s unsealed epoch %d: %s\n", env.MemberID, epoch, hex.EncodeToString(key))
	}

	fmt.Println("\ncar-bravo leaves the platoon; rekeying...")
	if err := hub.Leave("car-bravo"); err != nil {
		log.Fatal(err)
	}
	if _, err := hub.Rekey([]byte("platoon-epoch-2")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new group key: %s (car-bravo holds the old one only)\n", hex.EncodeToString(hub.GroupKey()))
}
