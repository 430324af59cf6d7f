// Command vkbench regenerates the paper's evaluation: every figure and
// table has a runner (see DESIGN.md's experiment index).
//
//	vkbench -list
//	vkbench -exp fig12
//	vkbench -all -quick -j 8
//
// Reports go to stdout; per-experiment timing goes to stderr, so stdout
// is byte-comparable across runs — `vkbench -all -j 8 > par.txt` equals
// `vkbench -all -j 1 > ser.txt` for the same seed (in -quick mode, where
// even the power profile is modeled deterministically).
//
// Observability is opt-in and never touches stdout:
//
//	vkbench -exp fig9 -metrics          # Prometheus-text snapshot → stderr
//	vkbench -all -pprof 127.0.0.1:6060  # live /debug/pprof, /metrics, /vars
//	vkbench -exp tab3 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	vehiclekey "repro"
	"repro/internal/exp"
	"repro/internal/obs"
)

func main() {
	var (
		id       = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		all      = flag.Bool("all", false, "run every experiment (same as -exp all)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quick    = flag.Bool("quick", false, "reduced dataset/epochs for a fast pass")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		samples  = flag.Int("samples", 0, "override dataset windows per scenario")
		epochs   = flag.Int("epochs", 0, "override training epochs")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		scheme   = flag.String("scheme", "", "restrict the 'schemes' experiment to one registered scheme (empty = all)")
		parallel = flag.Int("parallel", 0, "worker count for grid fan-out and cross-experiment concurrency (0 = all cores, 1 = serial)")

		metrics    = flag.Bool("metrics", false, "dump a Prometheus-text metrics snapshot to stderr when done (stdout stays byte-comparable)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof plus /metrics and /vars on this address (e.g. 127.0.0.1:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file when done")
	)
	flag.IntVar(parallel, "j", 0, "shorthand for -parallel")
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	cfg.Seed = *seed
	if *samples > 0 {
		cfg.Samples = *samples
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	cfg.Parallelism = *parallel
	cfg.Scheme = *scheme

	fail := func(err error) {
		// Best-effort stderr write: the process exits on this error.
		_, _ = fmt.Fprintf(os.Stderr, "vkbench: %v\n", err)
		os.Exit(1)
	}

	// Observability is opt-in: without flags no registry exists and the
	// engine records into obs.Nop. The registry dump goes to stderr so
	// stdout stays byte-comparable across instrumented and plain runs.
	var reg *vehiclekey.MetricsRegistry
	if *metrics || *pprofAddr != "" {
		reg = vehiclekey.NewMetricsRegistry()
		cfg.Obs = reg
	}
	var srv *obs.DebugServer
	if *pprofAddr != "" {
		var err error
		srv, err = obs.ServeDebug(*pprofAddr, reg)
		if err != nil {
			fail(err)
		}
		_, _ = fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/\n", srv.Addr)
	}
	stopCPU := func() error { return nil }
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fail(err)
		}
		stopCPU = stop
	}
	// finish flushes profiles and the metrics snapshot; call before every
	// successful return (fail exits the process, abandoning profiles).
	finish := func() {
		if err := stopCPU(); err != nil {
			_, _ = fmt.Fprintf(os.Stderr, "vkbench: %v\n", err)
		}
		if *memProfile != "" {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				_, _ = fmt.Fprintf(os.Stderr, "vkbench: %v\n", err)
			}
		}
		if *metrics && reg != nil {
			_ = reg.WritePrometheus(os.Stderr) // best-effort: stderr may be closed
		}
		if srv != nil {
			_ = srv.Close()
		}
	}

	emit := func(rep exp.Report) {
		if *markdown {
			fmt.Println(rep.Markdown())
		} else {
			fmt.Println(rep)
		}
	}
	if *all || *id == "all" {
		start := time.Now()
		reps, err := exp.RunAll(nil, cfg)
		if err != nil {
			fail(err)
		}
		for _, rep := range reps {
			emit(rep)
		}
		_, _ = fmt.Fprintf(os.Stderr, "(%d experiments in %v, %d workers)\n",
			len(reps), time.Since(start).Round(time.Millisecond), workersFor(cfg))
		finish()
		return
	}

	start := time.Now()
	rep, err := exp.Run(*id, cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *id, err))
	}
	emit(rep)
	_, _ = fmt.Fprintf(os.Stderr, "(%s in %v)\n", *id, time.Since(start).Round(time.Millisecond))
	finish()
}

// workersFor mirrors the engine's Parallelism resolution for display.
func workersFor(cfg exp.RunConfig) int {
	if cfg.Parallelism > 0 {
		return cfg.Parallelism
	}
	return exp.DefaultWorkers()
}
