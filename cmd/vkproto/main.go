// Command vkproto runs one end of the Vehicle-Key establishment protocol
// over a network transport, so the two protocol roles can run as separate
// processes (or separate machines sharing the simulated channel seed).
//
// Terminal 1: vkproto -role bob -endpoint udp://127.0.0.1:9100
// Terminal 2: vkproto -role alice -endpoint udp://127.0.0.1:9100
//
// -endpoint takes any socket scheme the transport registry knows
// (tcp://host:port, udp://host:port); the in-process schemes (mem://,
// lora://) need both roles in one process — use vkload for those.
//
// Both processes derive the same simulated drive and trained model from
// -seed, standing in for two radios probing the same physical channel.
//
// Link faults can be injected locally to exercise the protocol's
// retransmit/resynchronization path without a lossy network:
//
//	vkproto -role bob -endpoint udp://127.0.0.1:9100 -loss 0.25 -reorder 0.2
//	vkproto -role alice -endpoint udp://127.0.0.1:9100 -loss 0.25 -reorder 0.2
//
// Faults apply to this process's outgoing datagrams, so each side
// degrades its own uplink; run both with flags for a symmetric bad link.
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"
	"time"

	vehiclekey "repro"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/transport"
)

func main() {
	var (
		role     = flag.String("role", "", "alice or bob")
		endpoint = flag.String("endpoint", "udp://127.0.0.1:9100", "transport endpoint URL, e.g. tcp://host:port or udp://host:port (bob listens, alice dials)")
		seed     = flag.Int64("seed", 21, "shared deterministic seed")
		windows  = flag.Int("windows", 16, "probing windows to run")
		session  = flag.String("session", "vkproto", "session identifier")
		scheme   = flag.String("scheme", "", "key-generation scheme (default vehicle-key; see -list-schemes)")
		list     = flag.Bool("list-schemes", false, "print the registered scheme names and exit")

		loss      = flag.Float64("loss", 0, "probability of dropping an outgoing message")
		dup       = flag.Float64("dup", 0, "probability of duplicating an outgoing message")
		reorder   = flag.Float64("reorder", 0, "probability of holding a message past its successor")
		corrupt   = flag.Float64("corrupt", 0, "probability of flipping bytes in an outgoing message")
		delay     = flag.Float64("delay", 0, "probability of delaying an outgoing message")
		maxDelay  = flag.Duration("max-delay", 5*time.Millisecond, "upper bound for injected delays")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault-injection schedule")

		timeout = flag.Duration("timeout", 500*time.Millisecond, "initial per-message receive timeout")
		retries = flag.Int("retries", 8, "retransmit attempts before abandoning a round")

		metrics    = flag.Bool("metrics", false, "dump a Prometheus-text metrics snapshot to stderr when done")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof plus /metrics and /vars on this address")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file when done")
	)
	flag.Parse()

	if *list {
		for _, name := range vehiclekey.Schemes() {
			fmt.Println(name)
		}
		return
	}

	// Validate cheap inputs before paying for model training.
	if *role != "alice" && *role != "bob" {
		fatal(fmt.Errorf("-role must be alice or bob"))
	}
	if err := checkEndpoint(*endpoint); err != nil {
		fatal(err)
	}

	// One registry collects the session pipeline, the protocol node and
	// the fault injector together; the closing stats lines are read from
	// it, and -metrics/-pprof export it.
	reg := vehiclekey.NewMetricsRegistry()
	if *pprofAddr != "" {
		srv, err := obs.ServeDebug(*pprofAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("debug server on http://%s/debug/pprof/\n", srv.Addr)
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				_, _ = fmt.Fprintf(os.Stderr, "vkproto: %v\n", err)
			}
		}()
	}

	fmt.Println("building the shared channel simulation and model...")
	opts := vehiclekey.Options{
		Seed:            *seed,
		Scheme:          *scheme,
		TrainingWindows: 300,
		TrainingEpochs:  25,
		Recorder:        reg,
	}
	vs, err := vehiclekey.SetupWith(opts)
	if err != nil {
		fatal(err)
	}
	aliceWin, bobWin := vs.Windows(*windows)

	// Bob listens at the endpoint and takes the first link; alice dials
	// it. Alice's hello travels first so every scheme shares one
	// handshake shape.
	var conn transport.Conn
	if *role == "bob" {
		l, err := transport.Listen(*endpoint)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("listening on %s\n", l.Addr())
		c, err := l.Accept()
		if err != nil {
			fatal(err)
		}
		// One session per process, but keep the listener open until
		// exit: the UDP mux shares its socket with every accepted
		// session, so closing it here would sever the link just made.
		defer func() { _ = l.Close() }()
		hello, err := c.Recv()
		if err != nil {
			fatal(fmt.Errorf("waiting for alice: %w", err))
		}
		fmt.Printf("alice connected: %s\n", hello)
		conn = c
	} else {
		c, err := transport.Dial(*endpoint)
		if err != nil {
			fatal(err)
		}
		if err := c.Send([]byte("hello from alice")); err != nil {
			fatal(err)
		}
		conn = c
	}
	// Closing at exit is best-effort: the session is over and the socket
	// dies with the process either way.
	defer func() { _ = conn.Close() }()

	// Wrap in the fault injector only after the hello exchange: the
	// handshake that opens Bob's session must not be dropped.
	faults := transport.FaultConfig{
		Drop: *loss, Duplicate: *dup, Reorder: *reorder,
		Corrupt: *corrupt, Delay: *delay, MaxDelay: *maxDelay,
	}
	if faults.Enabled() {
		faulty := transport.WrapFaulty(conn, faults, rng.New(*faultSeed))
		faulty.SetRecorder(reg)
		conn = faulty
		fmt.Printf("injecting faults on outgoing messages: %+v\n", faults)
	}

	policy := protocol.DefaultRetryPolicy()
	policy.Timeout = *timeout
	policy.MaxRetries = *retries
	node := protocol.NewNode(vs.System(), conn, *session,
		protocol.WithRetryPolicy(policy), protocol.WithRecorder(reg))
	var outcomes []protocol.KeyOutcome
	if *role == "bob" {
		outcomes, err = node.RunBob(bobWin)
	} else {
		outcomes, err = node.RunAlice(aliceWin)
	}
	if err != nil {
		fatal(err)
	}
	confirmed := 0
	for i, o := range outcomes {
		switch {
		case o.Confirmed:
			confirmed++
			fmt.Printf("block %d: key %s\n", i, hex.EncodeToString(o.Key))
		case errors.Is(o.Err, vehiclekey.ErrPeerTimeout):
			fmt.Printf("block %d: abandoned (%s)\n", i, failurePhase(o.Err))
		case errors.Is(o.Err, vehiclekey.ErrConfirmFailed):
			fmt.Printf("block %d: rejected by confirmation\n", i)
		default:
			fmt.Printf("block %d: failed: %v\n", i, o.Err)
		}
	}
	c := reg.Snapshot().Counters
	fmt.Printf("protocol stats: sent=%d retransmits=%d timeouts=%d garbage=%d replay-drops=%d stale=%d abandoned=%d/%d\n",
		c[obs.ProtocolSent], c[obs.ProtocolRetransmits], c[obs.ProtocolTimeouts], c[obs.ProtocolGarbage],
		c[obs.ProtocolReplayDrops], c[obs.ProtocolStale], c[obs.ProtocolAbandonedWindows], c[obs.ProtocolAbandonedRounds])
	if faults.Enabled() {
		fault := func(kind string) int64 { return c[obs.Labeled(obs.TransportFaults, "kind", kind)] }
		fmt.Printf("fault stats: sent=%d delivered=%d dropped=%d dup=%d reordered=%d corrupted=%d delayed=%d\n",
			c[obs.ProtocolSent], fault("delivered"), fault("dropped"), fault("duplicated"),
			fault("reordered"), fault("corrupted"), fault("delayed"))
	}
	fmt.Printf("%s done: %d/%d blocks confirmed\n", *role, confirmed, len(outcomes))

	if *memProfile != "" {
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			_, _ = fmt.Fprintf(os.Stderr, "vkproto: %v\n", err)
		}
	}
	if *metrics {
		_ = reg.WritePrometheus(os.Stderr) // best-effort: stderr may be closed
	}
}

// checkEndpoint rejects malformed or unknown-scheme endpoints before
// model training starts, mirroring the cheap-inputs-first flag checks.
func checkEndpoint(endpoint string) error {
	u, err := url.Parse(endpoint)
	if err != nil || u.Scheme == "" {
		return fmt.Errorf("-endpoint %q is not a scheme://address URL", endpoint)
	}
	known := transport.Schemes()
	for _, s := range known {
		if s == u.Scheme {
			return nil
		}
	}
	return fmt.Errorf("-endpoint scheme %q unknown (known: %s)", u.Scheme, strings.Join(known, ", "))
}

// failurePhase names the protocol phase a failed round died in, using the
// typed error's diagnostics when present.
func failurePhase(err error) string {
	var re *vehiclekey.RoundError
	if errors.As(err, &re) {
		return "peer timed out in " + re.Phase + " phase"
	}
	return "peer timed out"
}

func fatal(err error) {
	// Best-effort stderr write: the process is exiting on this error.
	_, _ = fmt.Fprintf(os.Stderr, "vkproto: %v\n", err)
	os.Exit(1)
}
