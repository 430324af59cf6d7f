package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The decorators in decor.go record the transport and
// pipeline spans; the benchmark records the session and protocol spans
// around its own calls. Window derivation has no seam of its own, so its
// span is the gap between an end's first two spans (see
// sessionTrace.account).
const (
	spanVehicle   = "vehicle.session"
	spanServer    = "server.session"
	spanGateway   = "gateway.session"
	spanRun       = "protocol.run"
	spanDial      = "transport.dial"
	spanSend      = "transport.send"
	spanRecv      = "transport.recv"
	spanPredict   = "pipeline.predict"
	spanQuantize  = "pipeline.quantize"
	spanReconcile = "pipeline.reconcile"
	spanAmplify   = "pipeline.amplify"
	spanWindows   = "trace.windows"
	spanCached    = "server.window_cache"
)

// keepSessions caps the Chrome trace file: only the spans of the first
// sessions to finish are written.
const keepSessions = 200

type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
}

func (s span) seconds() float64 { return (s.end - s.start).Seconds() }

type endKind int

const (
	vehicleEnd endKind = iota // a vehicle running RunVehicle or RunVehicleWindows
	serverEnd                 // a server worker, from Result.Elapsed
	gatewayEnd                // a lora gateway running protocol.Node.RunAlice
)

// sessionTrace is one end of one session. Only the goroutine driving
// that end writes to it, until tracer.finish hands it over.
type sessionTrace struct {
	id   string
	kind endKind
	tid  uint64 // the Chrome thread: the client or device, or the server worker's goroutine id

	// derives marks a vehicle end that derives its windows between its
	// hello and its first quantization (RunVehicle); missed marks a server end
	// whose window-cache lookup missed; warmup marks an end opened before
	// the timed region, which is not counted.
	derives, missed, warmup bool

	span  span   // the whole end
	run   span   // vehicle ends: the RunVehicle* call
	dial  span   // vehicle ends on TCP
	kids  []span // transport and pipeline spans, in completion order
	bytes int    // bytes sent by this end
}

func (s *sessionTrace) add(name string, start, end time.Duration) {
	s.kids = append(s.kids, span{name: name, start: start, end: end})
}

// account splits one end's time across the layers. The protocol's self
// time is what remains of the protocol span (the RunVehicle* call, or
// the whole server or gateway end) once its transport and pipeline
// spans and the window-preparation gap are taken out.
type account struct {
	conn, stage, recv, self float64 // seconds
	gap                     span    // window preparation; zero when there is none
}

func (s *sessionTrace) account() account {
	var a account
	outer := s.span
	if s.kind == vehicleEnd {
		outer = s.run
	}
	// A vehicle running RunVehicle sends its hello, then derives its
	// windows, then quantizes its first window; a server receives the
	// hello, derives the windows or reads its cache, then runs its first
	// prediction. So window preparation is the gap between an end's first
	// span and its second.
	derives := s.kind == vehicleEnd && s.derives
	if (derives || s.kind == serverEnd) && len(s.kids) >= 2 {
		name := spanWindows
		if s.kind == serverEnd && !s.missed {
			name = spanCached
		}
		a.gap = span{name: name, start: s.kids[0].end, end: s.kids[1].start}
	}
	for _, k := range s.kids {
		d := k.seconds()
		switch k.name {
		case spanSend:
			a.conn += d
		case spanRecv:
			a.conn += d
			a.recv += d
		default:
			a.stage += d
		}
	}
	a.self = outer.seconds() - a.conn - a.stage - a.gap.seconds()
	return a
}

// sessionAgg sums both ends of one session.
type sessionAgg struct {
	self, recv float64 // seconds
	bytes      int
}

// tracer binds session ends to the goroutines that drive them, collects
// the spans the decorators record, and folds every finished end into
// per-layer aggregates. Spans stay in memory; only the first
// keepSessions sessions keep theirs for the Chrome file.
type tracer struct {
	epoch time.Time
	ends  sync.Map    // goroutine id → the server end that worker serves
	timed atomic.Bool // set once warm-up is over

	mu       sync.Mutex
	sessions map[string]*sessionAgg
	samples  map[string][]float64 // span name → durations in seconds
	kept     []*sessionTrace
	keptIDs  map[string]bool

	// accounted sums, over vehicle ends, the dial, transport, pipeline,
	// window and protocol-self time against the session span.
	accounted, sessionTime float64
}

func newTracer() *tracer {
	return &tracer{
		epoch:    time.Now(),
		sessions: make(map[string]*sessionAgg),
		samples:  make(map[string][]float64),
		keptIDs:  make(map[string]bool),
	}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// goid returns the calling goroutine's id. A server worker's stages
// have no other way to tell which session called them: the server, not
// this package, hands sessions to workers. It costs microseconds, so
// only server-side spans pay it.
func goid() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)]) // "goroutine 42 [running]: ..."
	if len(f) < 2 {
		return 0
	}
	id, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// begin starts a session end.
func (t *tracer) begin(id string, kind endKind, tid uint64) *sessionTrace {
	s := &sessionTrace{id: id, kind: kind, tid: tid, warmup: !t.timed.Load()}
	s.span = span{name: [...]string{spanVehicle, spanServer, spanGateway}[kind], start: t.now()}
	return s
}

// beginServer starts the server end the calling worker serves.
func (t *tracer) beginServer() *sessionTrace {
	s := t.begin("", serverEnd, goid())
	t.ends.Store(s.tid, s)
	return s
}

// serverEnd returns the server end the given worker serves, if any.
func (t *tracer) serverEnd(gid uint64) *sessionTrace {
	v, ok := t.ends.Load(gid)
	if !ok {
		return nil
	}
	return v.(*sessionTrace)
}

// finishServer closes the server end the calling worker serves; the
// server reports its sessions on the worker, right after they resolve.
func (t *tracer) finishServer(session string, elapsed time.Duration) {
	s := t.serverEnd(goid())
	if s == nil {
		return
	}
	end := t.now()
	s.id = session
	s.span = span{name: spanServer, start: end - elapsed, end: end}
	t.finish(s)
}

// finish folds a session end into the aggregates.
func (t *tracer) finish(s *sessionTrace) {
	if s.kind == serverEnd {
		t.ends.Delete(s.tid)
	}
	if s.warmup {
		return
	}
	if s.span.end == 0 {
		s.span.end = t.now()
	}
	a := s.account()

	t.mu.Lock()
	defer t.mu.Unlock()
	agg := t.sessions[s.id]
	if agg == nil {
		agg = &sessionAgg{}
		t.sessions[s.id] = agg
	}
	agg.self += a.self
	agg.recv += a.recv
	agg.bytes += s.bytes
	if a.gap.name == spanWindows {
		t.samples[spanWindows] = append(t.samples[spanWindows], a.gap.seconds())
	}
	for _, k := range s.kids {
		if k.name != spanRecv {
			t.samples[k.name] = append(t.samples[k.name], k.seconds())
		}
	}
	switch s.kind {
	case vehicleEnd:
		t.accounted += s.dial.seconds() + a.conn + a.stage + a.gap.seconds() + a.self
		t.sessionTime += s.span.seconds()
	case serverEnd, gatewayEnd:
		// Alice's whole session, on the server or a gateway.
		t.samples[spanServer] = append(t.samples[spanServer], s.span.seconds())
	}
	if t.keptIDs[s.id] || len(t.keptIDs) < keepSessions {
		t.keptIDs[s.id] = true
		t.kept = append(t.kept, s)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the kept sessions' spans as Chrome trace-event
// JSON (chrome://tracing, Perfetto). Every event carries its own id,
// its parent's id and the session id in args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var events []chromeEvent
	next := 0
	emit := func(s *sessionTrace, sp span, parent int) int {
		next++
		events = append(events, chromeEvent{
			Name: sp.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(sp.start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": next, "parent": parent, "session": s.id},
		})
		return next
	}
	for _, s := range t.kept {
		root := emit(s, s.span, 0)
		parent := root
		if s.kind == vehicleEnd {
			if s.dial.name != "" {
				emit(s, s.dial, root)
			}
			parent = emit(s, s.run, root)
		}
		if a := s.account(); a.gap.name != "" {
			emit(s, a.gap, parent)
		}
		for _, k := range s.kids {
			emit(s, k, parent)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
