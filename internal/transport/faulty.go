// Deterministic fault injection for transport connections.
//
// LoRa links drop, duplicate, reorder, and corrupt frames as a matter of
// course; the related simulator literature (LoRa CAD/capture-effect
// emulators, SDR key-generation testbeds) treats these as first-class
// simulation inputs. FaultyConn brings the same fault model to any Conn:
// every fault decision is drawn from a seeded rng.Source on the sender
// side, so a fixed seed yields a fixed fault schedule for a fixed message
// sequence — tests replay the exact same loss pattern every run.
package transport

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Fault-outcome metric names, baked once per kind (see obs.FaultKinds).
var (
	faultDropped    = obs.Labeled(obs.TransportFaults, "kind", "dropped")
	faultDuplicated = obs.Labeled(obs.TransportFaults, "kind", "duplicated")
	faultReordered  = obs.Labeled(obs.TransportFaults, "kind", "reordered")
	faultCorrupted  = obs.Labeled(obs.TransportFaults, "kind", "corrupted")
	faultDelayed    = obs.Labeled(obs.TransportFaults, "kind", "delayed")
	faultDelivered  = obs.Labeled(obs.TransportFaults, "kind", "delivered")
)

// FaultConfig sets independent per-message fault probabilities. The zero
// value injects nothing.
type FaultConfig struct {
	// Drop is the probability a message vanishes on the wire.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back and delivered
	// after the next one (adjacent swap), modeling out-of-order arrival.
	Reorder float64
	// Corrupt is the probability a message has bytes flipped in flight.
	Corrupt float64
	// Delay is the probability a message is deferred by a uniform time in
	// (0, MaxDelay] before transmission.
	Delay float64
	// MaxDelay bounds injected delays; it defaults to 5ms when Delay > 0.
	MaxDelay time.Duration
}

// Enabled reports whether the config injects any fault at all.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Duplicate > 0 || c.Reorder > 0 || c.Corrupt > 0 || c.Delay > 0
}

// FaultyConn wraps a Conn and injects faults on the egress path. Wrap
// both ends (with independently derived sources) to fault both
// directions. It is safe for concurrent use.
type FaultyConn struct {
	inner Conn
	cfg   FaultConfig

	mu   sync.Mutex
	src  *rng.Source
	held []byte // message deferred by a reorder fault
	rec  obs.Recorder
}

// SetRecorder routes the injector's fault outcomes into r as
// vk_transport_faults_total{kind=...} counters. Call it before traffic
// flows; the field is then read under the same mutex as the schedule.
func (c *FaultyConn) SetRecorder(r obs.Recorder) {
	c.mu.Lock()
	c.rec = obs.OrNop(r)
	c.mu.Unlock()
}

// WrapFaulty wraps conn with the given fault model. The source must be
// dedicated to this wrapper (rng.Source is not safe for sharing across
// goroutines); derive one per direction.
func WrapFaulty(conn Conn, cfg FaultConfig, src *rng.Source) *FaultyConn {
	if cfg.Delay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	return &FaultyConn{inner: conn, cfg: cfg, src: src, rec: obs.Nop}
}

// FaultyPair returns an in-memory pair with both directions faulted under
// cfg, each from its own source derived from src.
func FaultyPair(cfg FaultConfig, src *rng.Source) (*FaultyConn, *FaultyConn) {
	a, b := Pair()
	return WrapFaulty(a, cfg, src.Derive("faulty-a")), WrapFaulty(b, cfg, src.Derive("faulty-b"))
}

// Send implements Conn, applying the fault schedule to the outgoing
// message. Fault draws happen in Send-call order, so a single-goroutine
// sender gets a fully deterministic schedule from the seed.
func (c *FaultyConn) Send(msg []byte) error {
	c.mu.Lock()
	rec := c.rec
	// Take any message held by an earlier reorder fault: it is released
	// on this transmission event, after the current message.
	prev := c.held
	c.held = nil

	var now [][]byte
	var delay time.Duration
	if c.src.Bernoulli(c.cfg.Drop) {
		rec.Add(faultDropped, 1)
	} else {
		cp := make([]byte, len(msg))
		copy(cp, msg)
		if len(cp) > 0 && c.src.Bernoulli(c.cfg.Corrupt) {
			rec.Add(faultCorrupted, 1)
			// Flip a burst of 1-4 bytes at a random offset.
			n := 1 + c.src.Intn(4)
			at := c.src.Intn(len(cp))
			for i := 0; i < n && at+i < len(cp); i++ {
				cp[at+i] ^= byte(1 + c.src.Intn(255))
			}
		}
		if c.src.Bernoulli(c.cfg.Reorder) && prev == nil {
			rec.Add(faultReordered, 1)
			c.held = cp
		} else {
			now = append(now, cp)
			if c.src.Bernoulli(c.cfg.Duplicate) {
				rec.Add(faultDuplicated, 1)
				dup := make([]byte, len(cp))
				copy(dup, cp)
				now = append(now, dup)
			}
		}
		if len(now) > 0 && c.src.Bernoulli(c.cfg.Delay) {
			rec.Add(faultDelayed, 1)
			delay = time.Duration(c.src.Uniform(0, float64(c.cfg.MaxDelay))) + time.Microsecond
		}
	}
	if prev != nil {
		now = append(now, prev)
	}
	rec.Add(faultDelivered, int64(len(now)))
	c.mu.Unlock()

	if delay > 0 {
		batch := now
		time.AfterFunc(delay, func() {
			for _, m := range batch {
				// The conn may have closed while the delay ran; a late
				// datagram simply disappears, like on a real link.
				_ = c.inner.Send(m)
			}
		})
		return nil
	}
	for _, m := range now {
		if err := c.inner.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements Conn.
func (c *FaultyConn) Recv() ([]byte, error) { return c.inner.Recv() }

// RecvTimeout implements Conn.
func (c *FaultyConn) RecvTimeout(d time.Duration) ([]byte, error) { return c.inner.RecvTimeout(d) }

// Close implements Conn, flushing a reorder-held message first so the
// last message of a session cannot be silently starved. The flushed
// message counts as delivered, like every other message released.
func (c *FaultyConn) Close() error {
	c.mu.Lock()
	held := c.held
	c.held = nil
	if held != nil {
		c.rec.Add(faultDelivered, 1)
	}
	c.mu.Unlock()
	if held != nil {
		_ = c.inner.Send(held)
	}
	return c.inner.Close()
}
