package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"
)

// tcpPolicy keeps retransmits out of a loopback run: a CPU stall of a
// few hundred milliseconds must not fire the ARQ timer, so the keys a
// session confirms depend on its inputs alone.
var tcpPolicy = protocol.RetryPolicy{Timeout: time.Second, MaxRetries: 6}

// fleet drives closed-loop vehicles against an in-process key server
// over tcp://127.0.0.1: two client goroutines, two server workers.
type fleet struct {
	cfg  config
	warm bool
	sc   trace.Scenario

	// bobWins are the returning vehicles' windows (fleet-warm), derived
	// once and held by the clients across sessions.
	bobWins [][][]float64
}

func newFleet(cfg config) *fleet {
	return &fleet{cfg: cfg, warm: cfg.workload == "fleet-warm", sc: trace.NewScenario(channel.Urban, channel.V2I)}
}

// vehicle maps a timed session index to its vehicle: every session a
// distinct vehicle on fleet-cold, the returning vehicles in turn on
// fleet-warm. Warm-up sessions of fleet-cold use indices counted down
// from the top of the seed's ID range, never reached by timed ones.
func (f *fleet) vehicle(i int) uint64 {
	if f.warm {
		i %= warmVehicles
	}
	return vehicleID(f.cfg.seed, i)
}

// serverConfig is the server every phase and every setup repetition
// builds.
func (f *fleet) serverConfig(tmpl *core.System) server.Config {
	return server.Config{
		Template:       tmpl,
		Scenario:       f.sc,
		Seed:           windowSeed,
		Workers:        workers,
		Queue:          workers,
		SessionTimeout: sessionWatchdog,
		Retry:          tcpPolicy,
	}
}

// ready builds the serving side for the setup timing: a server and its
// loopback listener.
func (f *fleet) ready(tmpl *core.System) (func(), error) {
	srv, err := server.New(f.serverConfig(tmpl))
	if err != nil {
		return nil, err
	}
	l, err := transport.Listen("tcp://127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	return func() {
		_ = l.Close()
		_ = srv.Close()
	}, nil
}

// fleetRun is one phase's server, clients and bookkeeping.
type fleetRun struct {
	f       *fleet
	addr    string
	clients []client
	opts    []protocol.Option
	tr      *tracer // nil when untraced

	mu      sync.Mutex
	pending map[string]*fleetSession
	ph      *phase
	start   time.Time // of the timed region
}

// client is one closed-loop client: its scheme clone, and the lane its
// decorated stages record into (traced phases).
type client struct {
	sys  *core.System
	lane *stageLane
	tid  uint64
}

// fleetSession pairs the two ends of one session by session name.
type fleetSession struct {
	idx       int
	vehicle   uint64
	timed     bool
	gotClient bool
	gotServer bool

	bob      []protocol.KeyOutcome
	bobErr   error
	latency  time.Duration
	doneAt   time.Duration // client return, since the timed region started
	watchdog bool
	alice    server.Result
}

func (f *fleet) phase(b *bench, traced bool, seconds float64) (*phase, error) {
	ph := newPhase()
	run := &fleetRun{f: f, pending: make(map[string]*fleetSession), ph: ph}
	scfg := f.serverConfig(b.tmpl)
	var reg *obs.Registry
	if traced {
		run.tr = newTracer()
		ph.tr = run.tr
		reg = obs.NewRegistry()
		scfg.Template = decorate(b.tmpl, &stageLane{t: run.tr, byWorker: true, shared: true})
		scfg.Recorder = tracedRecorder{Recorder: reg, t: run.tr}
		scfg.WrapConn = func(c transport.Conn) transport.Conn { return &tracedConn{Conn: c, t: run.tr} }
		run.opts = append(run.opts, protocol.WithRecorder(reg))
	}
	run.opts = append(run.opts, protocol.WithRetryPolicy(tcpPolicy))
	scfg.OnSession = run.serverDone
	for i := 0; i < clients; i++ {
		c := client{tid: 1_000_000 + uint64(i)}
		if traced {
			c.lane = &stageLane{t: run.tr}
			c.sys = decorate(b.tmpl, c.lane)
			c.sys.SetRecorder(reg)
		} else {
			c.sys = b.tmpl.Clone()
		}
		run.clients = append(run.clients, c)
	}
	// fleet-warm's clients hold each returning vehicle's windows, derived
	// once per run.
	if f.warm && f.bobWins == nil {
		for i := 0; i < warmVehicles; i++ {
			_, bob, err := server.SessionWindows(f.sc, b.tmpl.Cfg, windowSeed, f.vehicle(i), fleetWindows)
			if err != nil {
				return nil, err
			}
			f.bobWins = append(f.bobWins, bob)
		}
	}

	l, err := transport.Listen("tcp://127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(scfg)
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	run.addr = "tcp://" + l.Addr().String()

	// Warm-up, untimed: fleet-warm primes the server's window cache with
	// one session per returning vehicle; fleet-cold runs one session per
	// client.
	warmups := clients
	if f.warm {
		warmups = warmVehicles
	}
	run.loop(warmups, 0, false)

	var before, after obs.Snapshot
	if reg != nil {
		before = reg.Snapshot()
		run.tr.timed.Store(true)
	}
	u0 := readUsage()
	ph.units, ph.wall = run.loop(f.cfg.floor(f.det()), seconds, true)
	ph.use = readUsage().since(u0)
	if reg != nil {
		after = reg.Snapshot()
		addDelta(ph.counts, before, after)
	}

	// Close drains the workers, so every OnSession has run after it.
	_ = srv.Close()
	if err := <-served; err != nil {
		return nil, err
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	for name, s := range run.pending {
		// One end never reported: count it, with its replay inputs.
		run.settle(name, s)
	}
	return ph, nil
}

// det is the size of the deterministic session set the key yield is
// measured on: the first sessions of fleet-cold, one session of each
// returning vehicle on fleet-warm.
func (f *fleet) det() int {
	if f.warm {
		return warmVehicles
	}
	return coldDetSessions
}

// loop runs sessions 0, 1, 2, ... on the closed-loop clients. It stops
// handing out indices once at least atLeast have been handed out and the
// budget has elapsed, so the sessions it runs are always a prefix; the
// wall time ends when the last of them returns.
func (r *fleetRun) loop(atLeast int, seconds float64, timed bool) (int, time.Duration) {
	var next atomic.Int64
	budget := time.Duration(seconds * float64(time.Second))
	started := time.Now()
	if timed {
		r.start = started
	}
	var wg sync.WaitGroup
	for _, c := range r.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= atLeast && (r.f.cfg.units > 0 || time.Since(started) >= budget) {
					return
				}
				r.session(c, i, timed)
			}
		}()
	}
	wg.Wait()
	n := int(next.Load()) - len(r.clients)
	return n, time.Since(started)
}

// session runs one vehicle's session: dial, RunVehicle (fleet-cold) or
// RunVehicleWindows (fleet-warm), close.
func (r *fleetRun) session(c client, i int, timed bool) {
	f := r.f
	id := f.vehicle(i)
	if !timed && !f.warm {
		id = vehicleID(f.cfg.seed, 1<<20-1-i)
	}
	name := fmt.Sprintf("vk/vehicle/%d/%d", id, i)
	if !timed {
		name = fmt.Sprintf("vk/warmup/%d/%d", id, i)
	}
	r.mu.Lock()
	r.pending[name] = &fleetSession{idx: i, vehicle: id, timed: timed}
	r.mu.Unlock()

	var st *sessionTrace
	if r.tr != nil {
		st = r.tr.begin(name, vehicleEnd, c.tid)
		st.derives = !f.warm
		c.lane.s = st
	}
	started := time.Now()
	conn, err := transport.Dial(r.addr)
	if err != nil {
		r.clientDone(name, nil, err, time.Since(started), false, st)
		return
	}
	if st != nil {
		st.dial = span{name: spanDial, start: st.span.start, end: r.tr.now()}
		conn = &tracedConn{Conn: conn, t: r.tr, s: st}
		st.run.name, st.run.start = spanRun, r.tr.now()
	}
	var fired atomic.Bool
	watchdog := time.AfterFunc(sessionWatchdog, func() {
		fired.Store(true)
		_ = conn.Close()
	})
	v := server.Vehicle{ID: id, Windows: fleetWindows, Session: name}
	var out []protocol.KeyOutcome
	if f.warm {
		out, err = server.RunVehicleWindows(conn, c.sys, f.bobWins[i%warmVehicles], v, r.opts...)
	} else {
		out, err = server.RunVehicle(conn, c.sys, f.sc, c.sys.Cfg, windowSeed, v, r.opts...)
	}
	latency := time.Since(started)
	if st != nil {
		st.run.end = r.tr.now()
	}
	watchdog.Stop()
	_ = conn.Close()
	r.clientDone(name, out, err, latency, fired.Load(), st)
}

func (r *fleetRun) clientDone(name string, out []protocol.KeyOutcome, err error, latency time.Duration, fired bool, st *sessionTrace) {
	doneAt := time.Since(r.start)
	if st != nil {
		r.tr.finish(st)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.pending[name]
	s.gotClient, s.bob, s.bobErr, s.latency, s.watchdog, s.doneAt = true, out, err, latency, fired, doneAt
	if s.gotServer {
		r.settle(name, s)
	}
}

// serverDone is the server's OnSession hook; it runs on the worker.
func (r *fleetRun) serverDone(res server.Result) {
	if r.tr != nil {
		r.tr.finishServer(res.Session, res.Elapsed)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.pending[res.Session]
	if s == nil {
		// A connection the server resolved without a hello: no client
		// opened it, so it is a failure of its own.
		r.ph.attempted++
		r.ph.failed++
		_, _ = fmt.Fprintf(os.Stderr, "vkperf: server resolved a session no client opened (replay: -workload %s -seed %d): %s %v\n",
			r.f.cfg.workload, r.f.cfg.seed, res.Outcome, res.Err)
		return
	}
	s.gotServer, s.alice = true, res
	if s.gotClient {
		r.settle(res.Session, s)
	}
}

// settle checks one session's two ends against each other and counts
// it. Called with r.mu held.
func (r *fleetRun) settle(name string, s *fleetSession) {
	delete(r.pending, name)
	c := compareEnds(s.bob, s.alice.Outcomes)
	ph := r.ph
	var why []string
	switch {
	case !s.gotClient || !s.gotServer:
		why = append(why, "one end never reported")
	case s.bobErr != nil:
		why = append(why, "vehicle: "+s.bobErr.Error())
	case s.alice.Err != nil:
		why = append(why, "server: "+s.alice.Err.Error())
	}
	if s.watchdog {
		why = append(why, "watchdog fired")
	}
	if c.mismatch {
		why = append(why, "keys differ between the ends")
		ph.mismatches++
	}
	if c.oneSided > 0 {
		_, _ = fmt.Fprintf(os.Stderr, "vkperf: %d key(s) confirmed by one end only (replay: -workload %s -seed %d; session %d, vehicle %d)\n",
			c.oneSided, r.f.cfg.workload, r.f.cfg.seed, s.idx, s.vehicle)
	}
	if len(why) > 0 {
		_, _ = fmt.Fprintf(os.Stderr, "vkperf: failed session (replay: -workload %s -seed %d; session %d, vehicle %d, timed=%v): %v\n",
			r.f.cfg.workload, r.f.cfg.seed, s.idx, s.vehicle, s.timed, why)
	}
	if !s.timed {
		return
	}
	ph.attempted++
	ph.oneSided += c.oneSided
	if len(why) > 0 {
		ph.failed++
		return
	}
	ph.keys += c.confirmed
	ph.completed = append(ph.completed, completion{at: s.doneAt.Seconds(), latency: s.latency.Seconds()})
	ph.queueWait = append(ph.queueWait, (s.latency - s.alice.Elapsed).Seconds())
	ph.digests[s.idx] = keyDigest(name, s.bob)
	if s.idx < r.f.det() {
		ph.detRounds += c.rounds
		ph.detConfirmed += c.confirmed
		ph.detSessions++
	}
}
