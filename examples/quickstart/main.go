// Quickstart: train a Vehicle-Key deployment on a simulated urban V2I
// link and generate AES-128 session keys.
package main

import (
	"encoding/hex"
	"fmt"
	"log"

	vehiclekey "repro"
)

func main() {
	// The zero options reproduce the paper's default setup: urban V2I,
	// 50 km/h, SF12/125 kHz LoRa at 434 MHz. Smaller training sizes keep
	// the example fast; drop the overrides for paper-scale quality.
	session, err := vehiclekey.SetupWith(vehiclekey.Options{
		TrainingWindows: 200,
		TrainingEpochs:  15,
	})
	if err != nil {
		log.Fatal(err)
	}

	keys, metrics, err := session.GenerateKeys(3)
	if err != nil {
		log.Fatal(err)
	}
	for i, k := range keys {
		fmt.Printf("key %d: %s (agreement %.1f%%)\n", i+1, hex.EncodeToString(k.Bits), 100*k.Agreement)
	}
	fmt.Printf("pipeline metrics: %v\n", metrics)
}
