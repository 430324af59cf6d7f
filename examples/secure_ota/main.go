// secure_ota establishes a Vehicle-Key session key between a roadside
// unit and a passing vehicle (V2I), then uses it to push an authenticated,
// encrypted over-the-air configuration update through an AES-128-GCM
// channel — the end-to-end use the paper motivates.
package main

import (
	"fmt"
	"log"

	vehiclekey "repro"
	"repro/internal/secure"
)

func main() {
	fmt.Println("establishing a key between the RSU and the vehicle...")
	session, err := vehiclekey.SetupWith(vehiclekey.Options{
		Link:            vehiclekey.V2I,
		Environment:     vehiclekey.Rural,
		TrainingWindows: 200,
		TrainingEpochs:  15,
		Seed:            11,
	})
	if err != nil {
		log.Fatal(err)
	}
	keys, _, err := session.GenerateKeys(1)
	if err != nil {
		log.Fatal(err)
	}
	if len(keys) == 0 || !keys[0].Agreed {
		log.Fatal("no agreed key this window; in deployment the nodes keep probing")
	}
	key := keys[0].Bits

	// Both ends derive an AES-128-GCM channel from the shared key.
	rsu, err := secure.NewChannel(key)
	if err != nil {
		log.Fatal(err)
	}
	vehicle, err := secure.NewChannel(key)
	if err != nil {
		log.Fatal(err)
	}

	update := []byte(`{"fw":"2.4.1","speed_limit_kmh":80}`)
	ciphertext := rsu.Seal(update)
	fmt.Printf("RSU → vehicle: %d-byte sealed update\n", len(ciphertext))

	plain, err := vehicle.Open(ciphertext)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vehicle decrypted: %s\n", plain)

	// Replays are rejected by the channel's sequence numbers.
	if _, err := vehicle.Open(ciphertext); err != nil {
		fmt.Printf("replayed ciphertext rejected: %v\n", err)
	}
}
