// Command vknist trains a Vehicle-Key deployment, generates a key stream,
// and runs the NIST SP 800-22 battery over it (Table II).
//
//	vknist -bits 8192
package main

import (
	"flag"
	"fmt"
	"os"

	vehiclekey "repro"
)

func main() {
	var (
		bits  = flag.Int("bits", 4096, "minimum key-stream bits to test")
		seed  = flag.Int64("seed", 1, "deterministic seed")
		quick = flag.Bool("quick", false, "smaller training run")
	)
	flag.Parse()

	opts := vehiclekey.Options{Seed: *seed, Link: vehiclekey.V2V}
	if *quick {
		opts.TrainingWindows = 200
		opts.TrainingEpochs = 15
	}
	session, err := vehiclekey.SetupWith(opts)
	if err != nil {
		fatal(err)
	}
	rep, err := session.CheckRandomness(*bits)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("NIST battery over %d key-stream bits:\n", rep.Bits)
	failed := 0
	for _, r := range rep.Results {
		verdict := "PASS"
		if !r.Passed {
			verdict, failed = "FAIL", failed+1
		}
		fmt.Printf("  %-26s p=%.6f  %s\n", r.Name, r.P, verdict)
	}
	if failed > 0 {
		fmt.Printf("%d test(s) rejected randomness\n", failed)
		os.Exit(1)
	}
	fmt.Println("all tests passed (p >= 0.01)")
}

// fatal reports a fatal error and exits. The stderr write is
// best-effort: the process is already exiting on the reported error.
func fatal(err error) {
	_, _ = fmt.Fprintf(os.Stderr, "vknist: %v\n", err)
	os.Exit(1)
}
