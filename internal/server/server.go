// Package server is the fleet-facing serving layer: it accepts vehicle
// connections from any transport.Listener (framed TCP, the UDP mux) and
// runs the Alice role of the key-establishment protocol for each, so one
// process serves many concurrent vehicles from one trained scheme.
//
// The design leans on two earlier layers. Scheme instances are sharded
// the way the experiment engine shards work: a bounded pool of worker
// goroutines, each owning a private core.System clone of the one trained
// template, consuming sessions from a queue — the cached template itself
// is only ever cloned, never run. And per-session channel realizations
// reuse the engine's rng.SubSeed sub-stream discipline, so both
// endpoints derive identical measurement windows from (seed, vehicle)
// without any coordination beyond the hello handshake.
//
// Every session resolves to exactly one outcome — established, degraded,
// rejected, or error — counted on the obs registry together with an
// active-session gauge and a session-latency histogram; the churn soak
// test audits that accounting against the connections it opened.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Session-outcome counter names, baked once per label (the obs idiom).
var outcomeCounters = map[string]string{
	obs.OutcomeEstablished: obs.Labeled(obs.ServerSessions, "outcome", obs.OutcomeEstablished),
	obs.OutcomeDegraded:    obs.Labeled(obs.ServerSessions, "outcome", obs.OutcomeDegraded),
	obs.OutcomeRejected:    obs.Labeled(obs.ServerSessions, "outcome", obs.OutcomeRejected),
	obs.OutcomeError:       obs.Labeled(obs.ServerSessions, "outcome", obs.OutcomeError),
}

// Window-cache effectiveness counters, baked once (the obs idiom).
var (
	cacheHitWindows  = obs.Labeled(obs.CacheHits, "cache", "windows")
	cacheMissWindows = obs.Labeled(obs.CacheMisses, "cache", "windows")
)

// winKey identifies one vehicle's derived session windows; scenario,
// config, and seed are fixed per Server, so (vehicle, count) determines
// the derivation completely.
type winKey struct {
	vehicle uint64
	n       int
}

// winVal is one memoized derivation of the server's (Alice's) side. The
// nested slices are shared across every session that hits the key —
// including concurrent workers — and are read-only by contract: the
// pipeline stages only read measurement windows (wincache_test.go proves
// cached == fresh and the race soak exercises the sharing).
type winVal struct {
	alice [][]float64
}

// ErrServerClosed reports an operation on a closed server.
var ErrServerClosed = errors.New("server: closed")

// errNoHello reports a session on which no valid hello arrived within
// the handshake deadline.
var errNoHello = errors.New("server: no hello received")

// Config configures New. The zero value of every optional field takes
// the documented default.
type Config struct {
	// Template is the trained scheme instance sessions are served from.
	// It is never run directly: each worker owns a private clone.
	Template *core.System
	// Scenario is the simulated channel both endpoints derive session
	// windows from; it must match the vehicles' scenario.
	Scenario trace.Scenario
	// Seed is the shared base seed of the per-vehicle window derivation.
	Seed int64

	// Workers bounds concurrent sessions (default 8). Each worker holds
	// one scheme clone for its lifetime, so memory scales with Workers,
	// not with fleet size.
	Workers int
	// Queue is the accepted-but-unserved backlog depth (default 64).
	// When it is full the accept loop blocks — backpressure, not loss.
	Queue int
	// MaxWindows caps the per-session window count a hello may request
	// (default 64): the window derivation does real simulation work, so
	// a hostile hello must not buy unbounded compute.
	MaxWindows int
	// WindowCacheSize bounds the per-vehicle session-window memo shared
	// by the worker pool (default 1024 entries; negative disables
	// caching). Reconnecting vehicles skip the channel-simulation work
	// entirely — the dominant per-session cost once schemes are cheap.
	WindowCacheSize int

	// HelloTimeout bounds the wait for a session's handshake (default 5s).
	HelloTimeout time.Duration
	// SessionTimeout bounds one whole session (default 60s); on expiry
	// the connection is closed, which the protocol run observes as a
	// graceful end.
	SessionTimeout time.Duration
	// DrainTimeout bounds Close's graceful drain (default 10s); sessions
	// still running after it are cut by force-closing their connections.
	DrainTimeout time.Duration

	// Retry is the protocol node's timeout/retransmit policy; the zero
	// value takes protocol.DefaultRetryPolicy.
	Retry protocol.RetryPolicy
	// Recorder receives the serving metrics and every session's protocol
	// and pipeline metrics (default obs.Nop; the server never constructs
	// its own registry — the obsnop contract).
	Recorder obs.Recorder
	// OnSession, when set, observes every resolved session. It runs on
	// the session's worker; keep it cheap.
	OnSession func(Result)
	// WrapConn, when set, wraps every accepted connection before serving
	// — the loopback suite injects transport faults on the server's
	// egress path through it.
	WrapConn func(transport.Conn) transport.Conn
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 64
	}
	if c.WindowCacheSize == 0 {
		c.WindowCacheSize = 1024
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = 5 * time.Second
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Result is one resolved session, delivered to Config.OnSession.
type Result struct {
	Vehicle   uint64
	Session   string
	Outcome   string // one of obs.ServerOutcomes
	Outcomes  []protocol.KeyOutcome
	Confirmed int
	Elapsed   time.Duration
	Err       error
}

// Server is the session manager: listeners feed accepted connections
// into a bounded queue; workers (each holding a private scheme clone)
// serve them one at a time.
type Server struct {
	cfg   Config
	rec   obs.Recorder
	queue chan transport.Conn
	done  chan struct{}
	once  sync.Once

	workerWG sync.WaitGroup
	acceptWG sync.WaitGroup

	mu        sync.Mutex
	listeners []transport.Listener
	live      map[transport.Conn]struct{}

	// wins memoizes SessionWindows by (vehicle, count) across the whole
	// worker pool — the one cache in the serving layer that is shared
	// between goroutines. nil when Config.WindowCacheSize < 0.
	wins *memo.LRU[winKey, winVal]

	active atomic.Int64
}

// New validates cfg and starts the worker pool. The server accepts
// nothing until Serve is called with a listener.
func New(cfg Config) (*Server, error) {
	if cfg.Template == nil {
		return nil, errors.New("server: Config.Template must be a trained scheme instance")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		rec:   obs.OrNop(cfg.Recorder),
		queue: make(chan transport.Conn, cfg.Queue),
		done:  make(chan struct{}),
		live:  make(map[transport.Conn]struct{}),
	}
	if cfg.WindowCacheSize > 0 {
		s.wins = memo.NewLRU[winKey, winVal](cfg.WindowCacheSize)
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Serve accepts connections from l until l or the server closes, then
// returns nil (an accept failure other than closure is returned). It
// blocks, like net/http.Serve; run it in a goroutine to serve several
// listeners — e.g. TCP and the UDP mux — from one session manager.
func (s *Server) Serve(l transport.Listener) error {
	select {
	case <-s.done:
		return ErrServerClosed
	default:
	}
	s.mu.Lock()
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	s.acceptWG.Add(1)
	defer s.acceptWG.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		if s.cfg.WrapConn != nil {
			conn = s.cfg.WrapConn(conn)
		}
		select {
		case s.queue <- conn:
		case <-s.done:
			_ = conn.Close()
			return nil
		}
	}
}

// Close shuts the server down gracefully: stop accepting, let running
// sessions finish within DrainTimeout, then cut the stragglers. Safe to
// call more than once; sessions queued but never started resolve as
// rejected so the accounting stays complete.
func (s *Server) Close() error {
	s.once.Do(func() {
		close(s.done)
		s.mu.Lock()
		ls := append([]transport.Listener(nil), s.listeners...)
		s.mu.Unlock()
		for _, l := range ls {
			_ = l.Close()
		}
		s.acceptWG.Wait() // no accept loop can enqueue past this point
		close(s.queue)

		drained := make(chan struct{})
		go func() {
			s.workerWG.Wait()
			close(drained)
		}()
		timer := time.NewTimer(s.cfg.DrainTimeout)
		defer timer.Stop()
		select {
		case <-drained:
		case <-timer.C:
			// Force-close the connections still being served; their
			// protocol runs observe ErrClosed and end gracefully.
			s.mu.Lock()
			for conn := range s.live {
				_ = conn.Close()
			}
			s.mu.Unlock()
			// Bounded second wait (netdeadline): force-closed sessions
			// unwind within their receive deadlines, but if one wedges
			// anyway Close must not wedge with it.
			grace := time.NewTimer(s.cfg.DrainTimeout)
			defer grace.Stop()
			select {
			case <-drained:
			case <-grace.C:
			}
		}
	})
	return nil
}

// worker owns one scheme clone and serves queued sessions sequentially
// — the exp engine's sharding discipline applied to serving. After
// Close, leftover queued connections are rejected, not served.
func (s *Server) worker() {
	defer s.workerWG.Done()
	sys := s.cfg.Template.Clone()
	sys.SetRecorder(s.rec)
	for conn := range s.queue {
		select {
		case <-s.done:
			s.resolve(conn, Result{Outcome: obs.OutcomeRejected, Err: ErrServerClosed}, time.Time{})
		default:
			s.session(sys, conn)
		}
	}
}

// session runs one connection through handshake and protocol and
// resolves it to exactly one outcome.
func (s *Server) session(sys *core.System, conn transport.Conn) {
	//vklint:ignore norand -- session latency metric only; never feeds randomness or key material
	started := time.Now()
	n := s.active.Add(1)
	s.rec.Set(obs.ServerActiveSessions, float64(n))
	s.track(conn, true)

	res := s.run(sys, conn)

	s.track(conn, false)
	n = s.active.Add(-1)
	s.rec.Set(obs.ServerActiveSessions, float64(n))
	s.resolve(conn, res, started)
}

// run executes the handshake and the Alice protocol role.
func (s *Server) run(sys *core.System, conn transport.Conn) Result {
	h, err := s.awaitHello(conn)
	if err != nil {
		return Result{Outcome: obs.OutcomeRejected, Err: err}
	}
	res := Result{Vehicle: h.Vehicle, Session: h.Session}
	if h.Windows > s.cfg.MaxWindows {
		res.Outcome = obs.OutcomeRejected
		res.Err = fmt.Errorf("server: hello requested %d windows, cap %d", h.Windows, s.cfg.MaxWindows)
		return res
	}
	aliceWin, err := s.sessionWindows(h.Vehicle, h.Windows)
	if err != nil {
		res.Outcome = obs.OutcomeError
		res.Err = err
		return res
	}
	// The watchdog closes the connection when the session overstays; the
	// protocol run sees ErrClosed and returns its outcomes gracefully.
	watchdog := time.AfterFunc(s.cfg.SessionTimeout, func() { _ = conn.Close() })
	defer watchdog.Stop()

	node := protocol.NewNode(sys, conn, h.Session,
		protocol.WithRetryPolicy(s.cfg.Retry), protocol.WithRecorder(s.rec))
	res.Outcomes, res.Err = node.RunAlice(aliceWin)
	for _, o := range res.Outcomes {
		if o.Confirmed {
			res.Confirmed++
		}
	}
	switch {
	case res.Err != nil:
		res.Outcome = obs.OutcomeError
	case res.Confirmed > 0:
		res.Outcome = obs.OutcomeEstablished
	default:
		res.Outcome = obs.OutcomeDegraded
	}
	return res
}

// sessionWindows serves the Alice-side window derivation for a session,
// consulting the shared memo when caching is enabled. Cached windows are
// shared and read-only (see winVal); a racing duplicate derivation is
// identical by determinism, so Put-after-Get needs no locking beyond the
// LRU's own.
func (s *Server) sessionWindows(vehicle uint64, n int) ([][]float64, error) {
	derive := func() ([][]float64, error) {
		alice, _, err := SessionWindowsFor(s.cfg.Scenario, s.cfg.Template.Cfg, s.cfg.Seed, vehicle, n, trace.Alice)
		return alice, err
	}
	if s.wins == nil {
		return derive()
	}
	k := winKey{vehicle: vehicle, n: n}
	if v, ok := s.wins.Get(k); ok {
		s.rec.Add(cacheHitWindows, 1)
		return v.alice, nil
	}
	s.rec.Add(cacheMissWindows, 1)
	alice, err := derive()
	if err != nil {
		return nil, err
	}
	s.wins.Put(k, winVal{alice: alice})
	return alice, nil
}

// awaitHello reads frames until a valid hello arrives or the handshake
// deadline passes. Protocol envelopes that raced ahead of the hello are
// dropped — loss the ARQ layer already absorbs.
func (s *Server) awaitHello(conn transport.Conn) (Hello, error) {
	//vklint:ignore norand -- handshake deadline arithmetic only; never feeds randomness or key material
	deadline := time.Now().Add(s.cfg.HelloTimeout)
	for i := 0; i < 64; i++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		data, err := conn.RecvTimeout(remaining)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				break
			}
			return Hello{}, err
		}
		if h, err := decodeHello(data); err == nil {
			return h, nil
		}
	}
	return Hello{}, errNoHello
}

// resolve finalizes a session: close, count, observe, notify.
func (s *Server) resolve(conn transport.Conn, res Result, started time.Time) {
	_ = conn.Close()
	if !started.IsZero() {
		res.Elapsed = time.Since(started)
	}
	if name, ok := outcomeCounters[res.Outcome]; ok {
		s.rec.Add(name, 1)
	}
	s.rec.Observe(obs.ServerSessionSeconds, res.Elapsed.Seconds())
	if s.cfg.OnSession != nil {
		s.cfg.OnSession(res)
	}
}

// track maintains the live-connection set the drain deadline cuts.
func (s *Server) track(conn transport.Conn, add bool) {
	s.mu.Lock()
	if add {
		s.live[conn] = struct{}{}
	} else {
		delete(s.live, conn)
	}
	s.mu.Unlock()
}
