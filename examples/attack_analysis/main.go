// attack_analysis reproduces the paper's security evaluation from the
// attacker's seat: an Eve with full protocol knowledge, the trained
// models, and either a parking spot near the infrastructure
// (eavesdropping) or a car tailing the victim (imitating).
package main

import (
	"fmt"
	"log"

	vehiclekey "repro"
)

func main() {
	for _, env := range []struct {
		name string
		val  vehiclekey.Environment
	}{{"urban", vehiclekey.Urban}, {"rural", vehiclekey.Rural}} {
		session, err := vehiclekey.SetupWith(vehiclekey.Options{
			Environment:     env.val,
			Link:            vehiclekey.V2V,
			TrainingWindows: 200,
			TrainingEpochs:  15,
			Seed:            13,
		})
		if err != nil {
			log.Fatal(err)
		}
		legit, err := session.Evaluate()
		if err != nil {
			log.Fatal(err)
		}
		eaves, err := session.EvaluateAttack(false)
		if err != nil {
			log.Fatal(err)
		}
		imit, err := session.EvaluateAttack(true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s V2V:\n", env.name)
		fmt.Printf("  legitimate pair agreement: %.2f%% (exact keys %.0f%%)\n", 100*legit.PostKAR, 100*legit.ExactRate)
		fmt.Printf("  eavesdropping Eve:         %.2f%% (exact keys %.0f%%)\n", 100*eaves.PostKAR, 100*eaves.ExactRate)
		fmt.Printf("  imitating Eve:             %.2f%% (exact keys %.0f%%)\n", 100*imit.PostKAR, 100*imit.ExactRate)
		fmt.Println()
	}
	fmt.Println("an attacker who cannot cross ~50% per-bit advantage cannot reach a", "128-bit key: even at 70% per-bit agreement the chance of an exact key is 0.7^128 ≈ 1e-20")
}
