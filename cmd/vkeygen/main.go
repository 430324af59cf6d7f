// Command vkeygen trains a Vehicle-Key deployment on a simulated
// vehicular link and generates session keys, printing them with their
// agreement diagnostics.
//
//	vkeygen -env urban -link v2i -speed 50 -keys 4
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	vehiclekey "repro"
)

func main() {
	var (
		env   = flag.String("env", "urban", "environment: urban or rural")
		link  = flag.String("link", "v2i", "link type: v2i or v2v")
		speed = flag.Float64("speed", 50, "vehicle speed in km/h")
		keys  = flag.Int("keys", 4, "number of keys to generate")
		seed  = flag.Int64("seed", 1, "deterministic seed")
		quick = flag.Bool("quick", false, "smaller training run")
	)
	flag.Parse()

	opts := vehiclekey.Options{SpeedKmh: *speed, Seed: *seed}
	switch *env {
	case "urban":
		opts.Environment = vehiclekey.Urban
	case "rural":
		opts.Environment = vehiclekey.Rural
	default:
		fatalf(2, "vkeygen: -env must be urban or rural")
	}
	switch *link {
	case "v2i":
		opts.Link = vehiclekey.V2I
	case "v2v":
		opts.Link = vehiclekey.V2V
	default:
		fatalf(2, "vkeygen: -link must be v2i or v2v")
	}
	if *quick {
		opts.TrainingWindows = 160
		opts.TrainingEpochs = 15
	}

	fmt.Printf("training Vehicle-Key on a simulated %s %s link at %.0f km/h...\n", *env, *link, *speed)
	session, err := vehiclekey.SetupWith(opts)
	if err != nil {
		fatalf(1, "vkeygen: %v", err)
	}
	ks, metrics, err := session.GenerateKeys(*keys)
	if err != nil {
		fatalf(1, "vkeygen: %v", err)
	}
	for i, k := range ks {
		status := "AGREED"
		if !k.Agreed {
			status = fmt.Sprintf("mismatch (%.1f%% agreement)", 100*k.Agreement)
		}
		fmt.Printf("key %d: %s  %s\n", i+1, hex.EncodeToString(k.Bits), status)
	}
	fmt.Printf("\nmetrics: %v\n", metrics)
}

// fatalf reports a fatal error and exits with the given code. Stderr is
// best-effort by design: the process is exiting because of the reported
// error, and there is nothing left to do if the write itself fails.
func fatalf(code int, format string, args ...any) {
	_, _ = fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}
