package server

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"

	_ "repro/internal/baselines"
)

// churnPolicy keeps abandoned exchanges short so the storm finishes fast.
var churnPolicy = protocol.RetryPolicy{Timeout: 40 * time.Millisecond, MaxRetries: 4}

// patientPolicy is the well-behaved vehicles' retry budget. It must
// outlast the worst-case queue wait: with more concurrent dialers than
// workers, a conn can sit accepted-but-unserved behind dead peers that
// each pin a worker for the full hello timeout. Timeouts never fire on
// a clean localhost link, so the longer budget costs nothing when the
// server keeps up.
var patientPolicy = protocol.RetryPolicy{Timeout: 200 * time.Millisecond, MaxRetries: 9}

// snapshotMonotone asserts that no counter and no histogram count ever
// decreases between two snapshots — resolved sessions must only ever
// accumulate, whatever order workers finish in.
func snapshotMonotone(t *testing.T, prev, next obs.Snapshot) {
	t.Helper()
	for name, v := range prev.Counters {
		if next.Counters[name] < v {
			t.Errorf("counter %s went backwards: %d -> %d", name, v, next.Counters[name])
		}
	}
	for name, h := range prev.Histograms {
		if next.Histograms[name].Count < h.Count {
			t.Errorf("histogram %s count went backwards: %d -> %d", name, h.Count, next.Histograms[name].Count)
		}
	}
}

// TestServerChurn storms a TCP server with three interleaved populations
// — well-behaved vehicles, peers that connect and die silently, and
// vehicles that abort mid-session — and audits the session manager's
// accounting: every accepted connection resolves to exactly one outcome,
// no session is lost or double-counted, the active gauge returns to
// zero, obs counters climb monotonically, and no goroutine outlives the
// drain.
func TestServerChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket soak")
	}
	const (
		normal = 24
		dead   = 8
		aborts = 8
		conc   = 8
	)
	template := schemeTemplate(t, "lora-key")
	sc := loopbackScenario()

	baseline := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	obs.DeclareStandard(reg)

	var mu sync.Mutex
	var results []Result
	perVehicle := make(map[uint64]int)
	cfg := Config{
		Template:       template,
		Scenario:       sc,
		Seed:           loopbackSeed,
		Workers:        4,
		Queue:          16,
		Retry:          churnPolicy,
		HelloTimeout:   500 * time.Millisecond,
		SessionTimeout: 15 * time.Second,
		Recorder:       reg,
		OnSession: func(r Result) {
			mu.Lock()
			results = append(results, r)
			if r.Session != "" {
				perVehicle[r.Vehicle]++
			}
			mu.Unlock()
		},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()

	// Sample snapshots concurrently with the storm: monotonicity must
	// hold mid-flight, not just at the end.
	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		prev := reg.Snapshot()
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(20 * time.Millisecond):
			}
			next := reg.Snapshot()
			snapshotMonotone(t, prev, next)
			prev = next
		}
	}()

	// The storm: interleave the three populations over a worker pool so
	// joins and leaves overlap arbitrarily.
	type job struct {
		id   uint64
		kind int // 0 normal, 1 dead peer, 2 mid-session abort
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clone := template.Clone()
			for j := range jobs {
				conn, err := transport.DialTCP(l.Addr().String())
				if err != nil {
					t.Errorf("dial: %v", err)
					continue
				}
				switch j.kind {
				case 0: // plays the whole session
					_, err := RunVehicle(conn, clone, sc, template.Cfg, loopbackSeed, Vehicle{ID: j.id, Windows: 4},
						protocol.WithRetryPolicy(patientPolicy))
					if err != nil {
						t.Errorf("vehicle %d: %v", j.id, err)
					}
				case 1: // connects and dies without a word
					time.Sleep(5 * time.Millisecond)
				case 2: // starts a session, then vanishes mid-protocol
					done := make(chan struct{})
					go func() {
						defer close(done)
						_, _ = RunVehicle(conn, clone, sc, template.Cfg, loopbackSeed, Vehicle{ID: j.id, Windows: 4},
							protocol.WithRetryPolicy(churnPolicy))
					}()
					time.Sleep(30 * time.Millisecond)
					_ = conn.Close()
					<-done
				}
				_ = conn.Close()
			}
		}()
	}
	dialed := 0
	for i := 0; i < normal; i++ {
		jobs <- job{id: uint64(i), kind: 0}
		dialed++
	}
	for i := 0; i < dead; i++ {
		jobs <- job{id: uint64(1000 + i), kind: 1}
		dialed++
	}
	for i := 0; i < aborts; i++ {
		jobs <- job{id: uint64(2000 + i), kind: 2}
		dialed++
	}
	close(jobs)
	wg.Wait()

	// Drain; every accepted connection must have resolved by the time
	// Close returns.
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(stopSampling)
	<-samplerDone

	mu.Lock()
	defer mu.Unlock()
	if len(results) != dialed {
		t.Fatalf("%d connections dialed but %d sessions resolved", dialed, len(results))
	}
	// No lost and no double-served sessions: every well-behaved vehicle
	// resolved exactly once under its own session name.
	for i := 0; i < normal; i++ {
		if n := perVehicle[uint64(i)]; n != 1 {
			t.Errorf("vehicle %d resolved %d times, want exactly 1", i, n)
		}
	}
	for _, r := range results {
		valid := false
		for _, o := range obs.ServerOutcomes {
			if r.Outcome == o {
				valid = true
			}
		}
		if !valid {
			t.Errorf("session %q resolved with unknown outcome %q", r.Session, r.Outcome)
		}
	}

	// The gauge and the counters must agree with the audit trail.
	snap := reg.Snapshot()
	if g := snap.Gauges[obs.ServerActiveSessions]; g != 0 {
		t.Fatalf("active-session gauge = %v after drain", g)
	}
	var counted int64
	for _, o := range obs.ServerOutcomes {
		counted += snap.Counters[obs.Labeled(obs.ServerSessions, "outcome", o)]
	}
	if counted != int64(dialed) {
		t.Fatalf("outcome counters sum to %d, want %d", counted, dialed)
	}
	if c := snap.Histograms[obs.ServerSessionSeconds].Count; c != int64(dialed) {
		t.Fatalf("session-latency histogram holds %d observations, want %d", c, dialed)
	}

	// Serving after Close must fail cleanly, not hang or accept.
	if err := srv.Serve(l); err != ErrServerClosed {
		t.Fatalf("Serve after Close = %v, want ErrServerClosed", err)
	}

	// No goroutine outlives the drain (workers, accept loops, watchdogs,
	// sessions). Allow scheduler lag and unrelated runtime goroutines a
	// moment to park.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d at start, %d after drain\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerRejectsOversizedHello pins the serving-policy cap: a hello
// asking for more windows than Config.MaxWindows is rejected before any
// simulation work happens.
func TestServerRejectsOversizedHello(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test")
	}
	template := schemeTemplate(t, "lora-key")
	var mu sync.Mutex
	var got []Result
	srv, err := New(Config{
		Template:   template,
		Scenario:   loopbackScenario(),
		Seed:       loopbackSeed,
		Workers:    1,
		MaxWindows: 4,
		Retry:      churnPolicy,
		OnSession: func(r Result) {
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = srv.Close() }()

	conn, err := transport.DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Greedy hello: 8 windows against a cap of 4. The protocol run then
	// times out quickly on the closed server side.
	_, _ = RunVehicle(conn, template.Clone(), loopbackScenario(), template.Cfg, loopbackSeed,
		Vehicle{ID: 9, Windows: 8}, protocol.WithRetryPolicy(protocol.RetryPolicy{Timeout: 20 * time.Millisecond, MaxRetries: 1}))
	_ = conn.Close()
	_ = srv.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("resolved %d sessions, want 1", len(got))
	}
	if got[0].Outcome != obs.OutcomeRejected || got[0].Err == nil {
		t.Fatalf("oversized hello resolved as %q (err=%v), want rejected", got[0].Outcome, got[0].Err)
	}
	if got[0].Vehicle != 9 {
		t.Fatalf("rejected session recorded vehicle %d", got[0].Vehicle)
	}
}
