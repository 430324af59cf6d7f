package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/reconcile"
	"repro/internal/transport"
)

// The decorators below wrap the public seams of each layer. Each one
// forwards every call unchanged and records a span around it on the
// session end it belongs to, so a decorated run computes exactly what
// an undecorated one does (vkperf_test.go checks the key digests and the
// MAC counters).

// stageLane tells the stage decorators of one scheme clone which session
// end their calls belong to. The goroutine driving a vehicle or lora
// clone sets s around each session. A server clone serves one worker
// for its whole life, so its decorators learn that worker's goroutine
// on first use; the stages the server's clones share with the template
// (quantizer, amplifier) look the goroutine up on every call.
type stageLane struct {
	t *tracer
	s *sessionTrace

	byWorker bool   // a server clone's lane
	shared   bool   // the lane of the template's stages, shared by every worker
	gid      uint64 // the worker, once learnt
}

func (l *stageLane) end() *sessionTrace {
	switch {
	case !l.byWorker:
		return l.s
	case l.shared:
		return l.t.serverEnd(goid())
	case l.gid == 0:
		l.gid = goid()
	}
	return l.t.serverEnd(l.gid)
}

// record adds a span from start to now to the lane's session end. The
// end is looked up after the span closes, so the lookup's cost stays
// out of the stage's time.
func (l *stageLane) record(name string, start time.Duration) {
	end := l.t.now()
	if s := l.end(); s != nil {
		s.add(name, start, end)
	}
}

// clone is the lane of a stage cloned by the server for one worker.
func (l *stageLane) clone() *stageLane {
	if !l.byWorker {
		return l
	}
	return &stageLane{t: l.t, byWorker: true}
}

// decorate returns a clone of the trained template with every pipeline
// stage slot decorated to record into lane. Predictor and Reconciler
// clones stay decorated, so the clones a server makes for its workers
// record spans too.
func decorate(tmpl *core.System, lane *stageLane) *core.System {
	d := tmpl.Clone()
	st := &d.Stages
	st.Predictor = &tracedPredictor{inner: st.Predictor, l: lane}
	st.Quantizer = &tracedQuantizer{inner: st.Quantizer, l: lane}
	st.Reconciler = &tracedReconciler{inner: st.Reconciler, l: lane}
	st.Amplifier = &tracedAmplifier{inner: st.Amplifier, l: lane}
	return d
}

type tracedPredictor struct {
	inner pipeline.Predictor
	l     *stageLane
}

func (p *tracedPredictor) Name() string { return p.inner.Name() }

func (p *tracedPredictor) Predict(seq []float64) ([]float64, []byte, error) {
	start := p.l.t.now()
	yHat, bits, err := p.inner.Predict(seq)
	p.l.record(spanPredict, start)
	return yHat, bits, err
}

func (p *tracedPredictor) Clone() pipeline.Predictor {
	return &tracedPredictor{inner: p.inner.Clone(), l: p.l.clone()}
}

type tracedQuantizer struct {
	inner pipeline.Quantizer
	l     *stageLane
}

func (q *tracedQuantizer) Name() string       { return q.inner.Name() }
func (q *tracedQuantizer) BitsPerSample() int { return q.inner.BitsPerSample() }

func (q *tracedQuantizer) Quantize(seq []float64) ([]byte, []int, error) {
	start := q.l.t.now()
	bits, kept, err := q.inner.Quantize(seq)
	q.l.record(spanQuantize, start)
	return bits, kept, err
}

func (q *tracedQuantizer) QuantizePredicted(seq []float64) ([]byte, []int, error) {
	start := q.l.t.now()
	bits, kept, err := q.inner.QuantizePredicted(seq)
	q.l.record(spanQuantize, start)
	return bits, kept, err
}

type tracedReconciler struct {
	inner pipeline.Reconciler
	l     *stageLane
}

func (r *tracedReconciler) Name() string   { return r.inner.Name() }
func (r *tracedReconciler) BlockBits() int { return r.inner.BlockBits() }

func (r *tracedReconciler) Reconcile(alice, bob, salt []byte) (reconcile.Outcome, error) {
	start := r.l.t.now()
	out, err := r.inner.Reconcile(alice, bob, salt)
	r.l.record(spanReconcile, start)
	return out, err
}

func (r *tracedReconciler) BobEncode(block, salt []byte) ([]float64, []byte, error) {
	start := r.l.t.now()
	code, image, err := r.inner.BobEncode(block, salt)
	r.l.record(spanReconcile, start)
	return code, image, err
}

func (r *tracedReconciler) AliceCorrect(block []byte, code []float64, salt []byte) ([]byte, []byte, error) {
	start := r.l.t.now()
	final, image, err := r.inner.AliceCorrect(block, code, salt)
	r.l.record(spanReconcile, start)
	return final, image, err
}

func (r *tracedReconciler) Clone() pipeline.Reconciler {
	return &tracedReconciler{inner: r.inner.Clone(), l: r.l.clone()}
}

type tracedAmplifier struct {
	inner pipeline.Amplifier
	l     *stageLane
}

func (a *tracedAmplifier) Name() string { return a.inner.Name() }

func (a *tracedAmplifier) Amplify(bits, salt []byte) ([]byte, error) {
	start := a.l.t.now()
	out, err := a.inner.Amplify(bits, salt)
	a.l.record(spanAmplify, start)
	return out, err
}

// tracedConn decorates a transport.Conn: every Send and receive is a
// span on the conn's session end, and sent bytes are counted. A server
// conn is wrapped on the accept goroutine (server.Config.WrapConn), so
// its end is opened by the worker's first call instead.
type tracedConn struct {
	transport.Conn
	t *tracer
	s *sessionTrace
}

func (c *tracedConn) end() *sessionTrace {
	if c.s == nil {
		c.s = c.t.beginServer()
	}
	return c.s
}

func (c *tracedConn) Send(msg []byte) error {
	s := c.end()
	start := c.t.now()
	err := c.Conn.Send(msg)
	s.add(spanSend, start, c.t.now())
	s.bytes += len(msg)
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	s := c.end()
	start := c.t.now()
	msg, err := c.Conn.Recv()
	s.add(spanRecv, start, c.t.now())
	return msg, err
}

func (c *tracedConn) RecvTimeout(d time.Duration) ([]byte, error) {
	s := c.end()
	start := c.t.now()
	msg, err := c.Conn.RecvTimeout(d)
	s.add(spanRecv, start, c.t.now())
	return msg, err
}

// windowCacheMiss is the counter the server bumps when a session's
// windows are not cached and must be derived.
var windowCacheMiss = obs.Labeled(obs.CacheMisses, "cache", "windows")

// tracedRecorder decorates the server's obs.Recorder to learn, per
// session, whether the window cache missed: the server counts the miss
// on the worker that serves the session.
type tracedRecorder struct {
	obs.Recorder
	t *tracer
}

func (r tracedRecorder) Add(name string, delta int64) {
	r.Recorder.Add(name, delta)
	if name == windowCacheMiss {
		if s := r.t.serverEnd(goid()); s != nil {
			s.missed = true
		}
	}
}
