// Command vkload drives a fleet of simulated vehicles against one
// Vehicle-Key key server and reports the achieved session rate and
// latency tail from the obs registry.
//
// By default it is self-contained: it trains one scheme instance,
// starts an in-process server, and drives the whole fleet through the
// transport named by -endpoint:
//
//	vkload                                    # 1000 vehicles over tcp://127.0.0.1:0
//	vkload -endpoint udp://127.0.0.1:0 -vehicles 2000
//	vkload -endpoint "lora://fleet?channels=4&scale=2000" -vehicles 24
//	vkload -scheme lora-key -vehicles 200 -train-windows 60 -train-epochs 2
//
// lora:// endpoints put the whole fleet on one shared simulated medium:
// sessions contend through CAD, collisions, and duty-cycle budgets, and
// the MAC counters land in the -metrics snapshot.
//
// -platoon replaces the fleet benchmark with one group-rekey session:
// concurrent pairwise establishment, an epoch-1 group rekey sealed
// under the pairwise keys, the configured departures, and the epoch-2
// survivor rekey. The vk_group_* counters land in -metrics:
//
//	vkload -platoon 8 -scheme lora-key -platoon-leaves 1,6 -metrics
//	vkload -platoon 4 -scheme lora-key -endpoint "lora://platoon?channels=4"
//
// The server and load halves also run as separate processes over the
// socket schemes; both sides must agree on -seed, -scheme, and the
// training flags, exactly like the two ends of cmd/vkproto:
//
//	vkload -serve-only -endpoint tcp://0.0.0.0:9300   # terminal 1: server
//	vkload -drive-only -endpoint tcp://host:9300      # terminal 2: the fleet
//
// Per-vehicle arrival jitter is drawn from rng sub-streams keyed by
// (seed, vehicle), so a fixed seed replays the identical load shape.
package main

import (
	"flag"
	"fmt"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	vehiclekey "repro"
	"repro/internal/channel"
	"repro/internal/lora"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"
)

// runMode selects which halves of the benchmark this process runs.
type runMode int

const (
	modeInProcess runMode = iota // server + fleet in one process
	modeServe                    // server only
	modeDrive                    // fleet only, against an external server
)

func main() {
	var (
		vehicles = flag.Int("vehicles", 1000, "simulated vehicles to drive")
		conc     = flag.Int("concurrency", 64, "vehicles in flight at once")
		windows  = flag.Int("windows", 8, "probing windows per session")

		platoonN      = flag.Int("platoon", 0, "run one platoon group-rekey session with this many members instead of the fleet benchmark")
		platoonLeaves = flag.String("platoon-leaves", "1", "comma-separated member IDs departing after epoch 1 (empty = nobody leaves)")

		endpoint  = flag.String("endpoint", "", "transport endpoint URL: tcp://host:port, udp://host:port, mem://name, or lora://medium[?channels=..&duty=..] (default tcp://127.0.0.1:0)")
		serveOnly = flag.Bool("serve-only", false, "run only the server side, listening at -endpoint")
		driveOnly = flag.Bool("drive-only", false, "drive an external server at -endpoint (no in-process server)")

		seed     = flag.Int64("seed", 21, "shared deterministic seed (must match the server)")
		scheme   = flag.String("scheme", "", "key-generation scheme (default vehicle-key)")
		wincache = flag.Int("wincache", 0, "server session-window cache entries (0 = default 1024, negative disables)")
		trainW   = flag.Int("train-windows", 160, "probing windows used for training")
		trainE   = flag.Int("train-epochs", 12, "predictor training epochs")
		ramp     = flag.Duration("ramp", time.Second, "spread vehicle arrivals across this window")
		copies   = flag.Int("hello-copies", 0, "hello redundancy (default 1 on tcp, 3 on udp)")
		timeout  = flag.Duration("timeout", 300*time.Millisecond, "initial per-message receive timeout")
		retries  = flag.Int("retries", 6, "retransmit attempts before abandoning an exchange")

		workers        = flag.Int("workers", defaultWorkers(), "server worker pool size")
		queueDepth     = flag.Int("queue", 256, "server accept queue depth")
		sessionTimeout = flag.Duration("session-timeout", 30*time.Second, "server per-session watchdog")

		metrics = flag.Bool("metrics", false, "dump a Prometheus-text metrics snapshot to stderr when done")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	ep := *endpoint
	if ep == "" {
		ep = "tcp://127.0.0.1:0"
		if *platoonN > 0 {
			// Platoon runs are hub + members in one process; a named
			// in-memory endpoint is the natural default.
			ep = "mem://vkload-platoon"
		}
	}
	mode := modeInProcess
	if *serveOnly {
		mode = modeServe
	}
	if *driveOnly {
		mode = modeDrive
	}
	u, err := url.Parse(ep)
	if err != nil || u.Scheme == "" {
		fatal(fmt.Errorf("-endpoint %q is not a scheme://address URL", ep))
	}
	epScheme := u.Scheme
	// Reject unknown schemes here, before model training is paid for.
	schemeKnown := false
	for _, s := range transport.Schemes() {
		schemeKnown = schemeKnown || s == epScheme
	}
	if !schemeKnown {
		fatal(fmt.Errorf("-endpoint scheme %q unknown (known: %s)", epScheme, strings.Join(transport.Schemes(), ", ")))
	}
	if epScheme == "lora" && mode != modeInProcess {
		fatal(fmt.Errorf("lora:// media are in-process; drop -serve-only/-drive-only"))
	}
	if *platoonN > 0 {
		if mode != modeInProcess {
			fatal(fmt.Errorf("-platoon runs hub and members in one process; drop -serve-only/-drive-only"))
		}
		if (epScheme == "tcp" || epScheme == "udp") && strings.HasSuffix(u.Host, ":0") {
			fatal(fmt.Errorf("-platoon members dial -endpoint as given; pick a concrete %s port, not :0", epScheme))
		}
	}

	if *copies <= 0 {
		*copies = 1
		if epScheme == "udp" || epScheme == "lora" {
			*copies = 3 // unreliable transports: redundant hellos
		}
	}
	// Timeouts on a lora conn are virtual seconds covering whole frame
	// bursts, not socket round trips — rescale the ARQ defaults unless
	// the user pinned them.
	if epScheme == "lora" {
		if !set["timeout"] {
			*timeout = 4 * time.Second
		}
		if !set["retries"] {
			*retries = 8
		}
	}

	reg := vehiclekey.NewMetricsRegistry()
	fmt.Printf("training scheme %q (windows=%d epochs=%d seed=%d)...\n",
		schemeName(*scheme), *trainW, *trainE, *seed)
	vs, err := vehiclekey.SetupWith(vehiclekey.Options{
		Seed:            *seed,
		Scheme:          *scheme,
		TrainingWindows: *trainW,
		TrainingEpochs:  *trainE,
		Recorder:        reg,
	})
	if err != nil {
		fatal(err)
	}
	template := vs.System()
	sc := trace.NewScenario(channel.Urban, channel.V2I)

	policy := protocol.RetryPolicy{Timeout: *timeout, MaxRetries: *retries}
	srvConfig := server.Config{
		Template:        template,
		Scenario:        sc,
		Seed:            *seed,
		Workers:         *workers,
		Queue:           *queueDepth,
		SessionTimeout:  *sessionTimeout,
		WindowCacheSize: *wincache,
		Retry:           policy,
		Recorder:        reg,
	}

	// lora media must be created with the metrics registry attached
	// before the first Listen/Dial materializes them with a nop recorder.
	if epScheme == "lora" {
		if _, err := lora.EnsureEndpoint(ep, reg); err != nil {
			fatal(err)
		}
	}

	// Platoon mode: one group-rekey session (concurrent pairwise
	// establishment, epoch-1 rekey, departures, epoch-2 survivor rekey)
	// instead of the fleet benchmark.
	if *platoonN > 0 {
		pcfg := vehiclekey.PlatoonConfig{
			Members:  *platoonN,
			Leavers:  parseLeavers(*platoonLeaves),
			Endpoint: ep,
		}
		if set["windows"] {
			pcfg.Windows = *windows
		}
		if set["timeout"] || set["retries"] {
			pcfg.Retry = protocol.RetryPolicy{Timeout: *timeout, MaxRetries: *retries}
		}
		fmt.Printf("driving a %d-member platoon over %s (leavers %v)...\n", *platoonN, epScheme, pcfg.Leavers)
		started := time.Now()
		rep, err := vs.RunPlatoon(pcfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nvkload: platoon of %d over %s in %s\n", *platoonN, epScheme, time.Since(started).Round(time.Millisecond))
		fmt.Printf("  established: %d   failed: %d   leaves: %d   final epoch: %d\n",
			len(rep.Established), len(rep.Failed), rep.LeavesSeen, rep.FinalEpoch)
		for _, w := range rep.Rekeys {
			fmt.Printf("  epoch %d: addressed %d, acked %d\n", w.Epoch, len(w.Members), len(w.Acked))
		}
		fmt.Printf("  hub key digest: %s\n", rep.HubDigest)
		if acc := rep.Accepted[rep.FinalEpoch]; len(acc) > 0 {
			agree := 0
			for _, d := range acc {
				//vklint:ignore consttime -- key digests are published accounting fingerprints, not secret material
				if d == rep.HubDigest {
					agree++
				}
			}
			fmt.Printf("  members agreeing on the final key: %d/%d\n", agree, len(acc))
		}
		if *metrics {
			_ = reg.WritePrometheus(os.Stderr) // best-effort: stderr may be closed
		}
		return
	}

	// Server-only mode: serve until killed.
	if mode == modeServe {
		l, err := transport.Listen(ep)
		if err != nil {
			fatal(err)
		}
		srv, err := server.New(srvConfig)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving %s://%s (workers=%d)\n", epScheme, l.Addr(), *workers)
		if err := srv.Serve(l); err != nil {
			fatal(err)
		}
		return
	}

	// The endpoint the fleet dials: the external server in drive mode;
	// otherwise the in-process listener's resolved address for the socket
	// schemes, and the endpoint itself for the named ones (mem, lora),
	// where dialing the name is the contract.
	dialEp := ep
	var srv *server.Server
	if mode == modeInProcess {
		l, err := transport.Listen(ep)
		if err != nil {
			fatal(err)
		}
		srv, err = server.New(srvConfig)
		if err != nil {
			fatal(err)
		}
		go func() {
			if err := srv.Serve(l); err != nil {
				_, _ = fmt.Fprintf(os.Stderr, "vkload: %v\n", err)
			}
		}()
		if epScheme == "tcp" || epScheme == "udp" {
			dialEp = epScheme + "://" + l.Addr().String()
		}
		fmt.Printf("in-process server on %s (workers=%d queue=%d)\n", dialEp, *workers, *queueDepth)
	}

	fmt.Printf("driving %d vehicles (concurrency=%d windows=%d ramp=%s)...\n", *vehicles, *conc, *windows, *ramp)
	var established, failed, keys atomic.Int64
	idx := make(chan int)
	var wg sync.WaitGroup
	started := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scheme clone per load worker: vehicles on this worker run
			// sequentially, so the clone is never shared across sessions in
			// flight — the server shards its clones the same way.
			clone := template.Clone()
			for i := range idx {
				src := rng.Stream(*seed, "vkload/arrival", i)
				if *ramp > 0 {
					time.Sleep(time.Duration(src.Float64() * float64(*ramp)))
				}
				conn, err := transport.Dial(dialEp)
				if err != nil {
					failed.Add(1)
					continue
				}
				t0 := time.Now()
				outcomes, err := server.RunVehicle(conn, clone, sc, template.Cfg, *seed,
					server.Vehicle{ID: uint64(i), Windows: *windows, HelloCopies: *copies},
					protocol.WithRetryPolicy(policy), protocol.WithRecorder(reg))
				reg.Observe(obs.LoadSessionSeconds, time.Since(t0).Seconds())
				_ = conn.Close()
				confirmed := 0
				for _, o := range outcomes {
					if o.Confirmed {
						confirmed++
					}
				}
				keys.Add(int64(confirmed))
				if err != nil || confirmed == 0 {
					failed.Add(1)
				} else {
					established.Add(1)
				}
			}
		}()
	}
	for i := 0; i < *vehicles; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	wall := time.Since(started)

	if srv != nil {
		_ = srv.Close() // drain so the server-side accounting is complete
	}
	snap := reg.Snapshot()
	load := snap.Histograms[obs.LoadSessionSeconds]
	fmt.Printf("\nvkload: %d vehicles over %s in %s\n", *vehicles, epScheme, wall.Round(time.Millisecond))
	fmt.Printf("  established: %d   failed: %d   keys confirmed: %d\n",
		established.Load(), failed.Load(), keys.Load())
	fmt.Printf("  sessions/sec: %.1f\n", float64(load.Count)/wall.Seconds())
	fmt.Printf("  p99 session latency (client): %s\n", seconds(load.Quantile(0.99)))
	if srv != nil {
		ss := snap.Histograms[obs.ServerSessionSeconds]
		fmt.Printf("  p99 session latency (server): %s\n", seconds(ss.Quantile(0.99)))
		fmt.Printf("  server outcomes:")
		for _, o := range obs.ServerOutcomes {
			fmt.Printf(" %s=%d", o, snap.Counters[obs.Labeled(obs.ServerSessions, "outcome", o)])
		}
		fmt.Println()
	}
	if *metrics {
		_ = reg.WritePrometheus(os.Stderr) // best-effort: stderr may be closed
	}
}

// defaultWorkers sizes the server pool: one per CPU, floored at 4 —
// sessions spend much of their wall time waiting on the peer's compute
// and the wire, so extra workers overlap usefully even on small hosts.
func defaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

// parseLeavers turns the -platoon-leaves flag into member IDs; an
// empty flag means an explicit empty slice — nobody leaves.
func parseLeavers(s string) []uint64 {
	out := []uint64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("-platoon-leaves entry %q is not a member ID", part))
		}
		out = append(out, id)
	}
	return out
}

func schemeName(s string) string {
	if s == "" {
		return "vehicle-key"
	}
	return s
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Millisecond)
}

func fatal(err error) {
	// Best-effort stderr write: the process is exiting on this error.
	_, _ = fmt.Fprintf(os.Stderr, "vkload: %v\n", err)
	os.Exit(1)
}
