package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"
)

// loraPolicy is exp.runContention's: the medium's timeouts are virtual
// seconds, and one message is a fragment burst of a second or two on
// the air.
var loraPolicy = protocol.RetryPolicy{Timeout: 4 * time.Second, MaxTimeout: 16 * time.Second, Backoff: 1.6, MaxRetries: 8}

// loraFleet runs cycles of loraPairs vehicle/gateway sessions, each
// cycle on a fresh lockstep medium, following exp.runContention: the
// vehicle runs RunVehicleWindows after an ignition delay, the gateway
// runs the Alice role directly. Every cycle is deterministic; its medium
// seed comes from (seed, cycle).
type loraFleet struct {
	cfg config
	ids []uint64

	// Windows, derived once per run and held by both ends.
	bob, alice [][][]float64
}

func newLoraFleet(cfg config) *loraFleet {
	lf := &loraFleet{cfg: cfg}
	for i := 0; i < loraPairs; i++ {
		lf.ids = append(lf.ids, vehicleID(cfg.seed, i))
	}
	return lf
}

func mediumConfig(seed int64, rec obs.Recorder) lora.MediumConfig {
	return lora.MediumConfig{Channels: loraChannels, Lockstep: true, Seed: seed, Recorder: rec}
}

// ready builds the serving side for the setup timing: a medium.
func (lf *loraFleet) ready(*core.System) (func(), error) {
	m, err := lora.NewMedium(mediumConfig(1, nil))
	if err != nil {
		return nil, err
	}
	return func() { _ = m.Close() }, nil
}

// loraEnds are one phase's per-device scheme clones, and in a traced
// phase the lanes their stages record into.
type loraEnds struct {
	vsys, gsys   []*core.System
	vlane, glane []*stageLane
	opts         []protocol.Option
	tr           *tracer
	reg          *obs.Registry
}

// clone makes one device's scheme clone, decorated when traced.
func (e *loraEnds) clone(tmpl *core.System) (*core.System, *stageLane) {
	if e.tr == nil {
		return tmpl.Clone(), nil
	}
	lane := &stageLane{t: e.tr}
	sys := decorate(tmpl, lane)
	sys.SetRecorder(e.reg)
	return sys, lane
}

// cycleResult is one cycle's outcome.
type cycleResult struct {
	stats    lora.Stats
	counts   map[string]float64 // registry growth over the cycle (traced)
	attempts int
	failed   int
	mismatch int
	oneSided int
	keys     int
	rounds   int
	latency  []float64 // seconds, per completed vehicle session
	ttk      []float64 // virtual seconds, per completed vehicle session
	digest   []string  // per pair; empty for a failed one
}

func (lf *loraFleet) phase(b *bench, traced bool, seconds float64) (*phase, error) {
	ph := newPhase()
	if lf.bob == nil {
		sc := trace.NewScenario(channel.Urban, channel.V2I)
		for _, id := range lf.ids {
			alice, bob, err := server.SessionWindows(sc, b.tmpl.Cfg, windowSeed, id, loraWindows)
			if err != nil {
				return nil, err
			}
			lf.alice, lf.bob = append(lf.alice, alice), append(lf.bob, bob)
		}
	}
	ends := &loraEnds{}
	if traced {
		ends.tr = newTracer()
		ph.tr = ends.tr
		ends.reg = obs.NewRegistry()
		ends.opts = append(ends.opts, protocol.WithRecorder(ends.reg))
	}
	ends.opts = append(ends.opts, protocol.WithRetryPolicy(loraPolicy))
	for range lf.ids {
		v, vl := ends.clone(b.tmpl)
		g, gl := ends.clone(b.tmpl)
		ends.vsys, ends.vlane = append(ends.vsys, v), append(ends.vlane, vl)
		ends.gsys, ends.glane = append(ends.gsys, g), append(ends.glane, gl)
	}

	// One untimed cycle, on a medium seed no timed cycle uses.
	if _, err := lf.cycle(ends, rng.SubSeed(lf.cfg.seed, "vkperf/lora-fleet/warmup", 0), -1); err != nil {
		return nil, err
	}

	if ends.tr != nil {
		ends.tr.timed.Store(true)
	}
	det := lf.cfg.floor(loraDetCycles)
	budget := time.Duration(seconds * float64(time.Second))
	u0 := readUsage()
	started := time.Now()
	c := 0
	for ; c < det || (lf.cfg.units == 0 && time.Since(started) < budget); c++ {
		offset := time.Since(started).Seconds()
		r, err := lf.cycle(ends, rng.SubSeed(lf.cfg.seed, "vkperf/lora-fleet/medium", c), c)
		if err != nil {
			return nil, err
		}
		for _, l := range r.latency {
			ph.completed = append(ph.completed, completion{at: offset + l, latency: l})
		}
		ph.attempted += r.attempts
		ph.failed += r.failed
		ph.mismatches += r.mismatch
		ph.keys += r.keys
		ph.frames += r.stats.Frames
		for i, d := range r.digest {
			if d != "" {
				ph.digests[c*loraPairs+i] = d
			}
		}
		if c < det {
			// The deterministic prefix: every figure here repeats exactly
			// for a seed, whatever the machine.
			ph.detRounds += r.rounds
			ph.detConfirmed += r.keys
			ph.ttk = append(ph.ttk, r.ttk...)
			ph.medium = addStats(ph.medium, r.stats)
			for k, v := range r.counts {
				ph.counts[k] += v
			}
			ph.detSessions += loraPairs
			ph.oneSided += r.oneSided
		}
	}
	ph.wall = time.Since(started)
	ph.use = readUsage().since(u0)
	ph.units = c
	return ph, nil
}

// cycle runs one medium: loraPairs vehicles and gateways, each on its
// own goroutine, as lockstep requires. A watchdog closes the medium if
// the cycle outlives cycleWatchdog.
func (lf *loraFleet) cycle(ends *loraEnds, mediumSeed int64, c int) (cycleResult, error) {
	var res cycleResult
	var rec obs.Recorder
	var before obs.Snapshot
	if ends.reg != nil {
		rec = ends.reg
		before = ends.reg.Snapshot()
	}
	m, err := lora.NewMedium(mediumConfig(mediumSeed, rec))
	if err != nil {
		return res, err
	}
	defer func() { _ = m.Close() }()
	var fired atomic.Bool
	watchdog := time.AfterFunc(cycleWatchdog, func() {
		fired.Store(true)
		_ = m.Close()
	})
	defer watchdog.Stop()

	type pair struct {
		vconn, gconn *lora.Conn
		jitter       time.Duration
		bob, alice   []protocol.KeyOutcome
		bobErr       error
		aliceErr     error
		latency      time.Duration
		ttk          float64
	}
	pairs := make([]*pair, len(lf.ids))
	for i := range pairs {
		v, g, err := m.Link(fmt.Sprintf("veh-%d", i))
		if err != nil {
			return res, err
		}
		jitter := rng.Stream(mediumSeed, "vkperf/lora-fleet/jitter", i).Uniform(0, 2)
		pairs[i] = &pair{vconn: v, gconn: g, jitter: time.Duration(jitter * float64(time.Second))}
	}

	started := time.Now()
	var wg sync.WaitGroup
	for i, p := range pairs {
		i, p := i, p
		name := server.SessionName(lf.ids[i])
		traceID := fmt.Sprintf("cycle-%d/%s", c, name)
		wg.Add(2)
		go func() { // vehicle: ignition delay, then the client stack
			defer wg.Done()
			defer func() { _ = p.vconn.Close() }()
			if err := p.vconn.Wait(p.jitter); err != nil {
				p.bobErr = err
				return
			}
			var conn transport.Conn = p.vconn
			var st *sessionTrace
			if ends.tr != nil {
				st = ends.tr.begin(traceID, vehicleEnd, 2_000_000+uint64(i))
				st.run = span{name: spanRun, start: st.span.start}
				ends.vlane[i].s = st
				conn = &tracedConn{Conn: conn, t: ends.tr, s: st}
			}
			p.bob, p.bobErr = server.RunVehicleWindows(conn, ends.vsys[i], lf.bob[i],
				server.Vehicle{ID: lf.ids[i], HelloCopies: 2}, ends.opts...)
			p.latency = time.Since(started)
			p.ttk = p.vconn.LastActive()
			if st != nil {
				st.run.end = ends.tr.now()
				ends.tr.finish(st)
			}
		}()
		go func() { // gateway: the Alice role over the held windows
			defer wg.Done()
			defer func() { _ = p.gconn.Close() }()
			var conn transport.Conn = p.gconn
			var st *sessionTrace
			if ends.tr != nil {
				st = ends.tr.begin(traceID, gatewayEnd, 3_000_000+uint64(i))
				ends.glane[i].s = st
				conn = &tracedConn{Conn: conn, t: ends.tr, s: st}
			}
			// The hello copies land as garbage envelopes the ARQ layer
			// skips, as on the real server after its hello decode.
			node := protocol.NewNode(ends.gsys[i], conn, name, ends.opts...)
			p.alice, p.aliceErr = node.RunAlice(lf.alice[i])
			if st != nil {
				ends.tr.finish(st)
			}
		}()
	}
	wg.Wait()
	res.stats = m.Stats()
	if ends.reg != nil {
		res.counts = make(map[string]float64)
		addDelta(res.counts, before, ends.reg.Snapshot())
	}

	res.digest = make([]string, len(pairs))
	for i, p := range pairs {
		cmp := compareEnds(p.bob, p.alice)
		res.attempts++
		res.rounds += cmp.rounds
		var why []string
		if p.bobErr != nil {
			why = append(why, "vehicle: "+p.bobErr.Error())
		}
		if p.aliceErr != nil {
			why = append(why, "gateway: "+p.aliceErr.Error())
		}
		if fired.Load() {
			why = append(why, "watchdog closed the medium")
		}
		if cmp.mismatch {
			why = append(why, "keys differ between the ends")
			res.mismatch++
		}
		if cmp.oneSided > 0 {
			res.oneSided += cmp.oneSided
			_, _ = fmt.Fprintf(os.Stderr, "vkperf: %d key(s) confirmed by one end only (replay: -workload lora-fleet -seed %d; cycle %d, vehicle %d)\n",
				cmp.oneSided, lf.cfg.seed, c, lf.ids[i])
		}
		if len(why) > 0 {
			res.failed++
			_, _ = fmt.Fprintf(os.Stderr, "vkperf: failed session (replay: -workload lora-fleet -seed %d; cycle %d, vehicle %d): %v\n",
				lf.cfg.seed, c, lf.ids[i], why)
			continue
		}
		res.keys += cmp.confirmed
		res.latency = append(res.latency, p.latency.Seconds())
		res.ttk = append(res.ttk, p.ttk)
		res.digest[i] = keyDigest(server.SessionName(lf.ids[i]), p.bob)
	}
	return res, nil
}

// addStats sums the MAC counters of several media.
func addStats(a, b lora.Stats) lora.Stats {
	a.Frames += b.Frames
	a.Delivered += b.Delivered
	a.Collided += b.Collided
	a.HalfDuplex += b.HalfDuplex
	a.CADDropped += b.CADDropped
	a.ClosedDrops += b.ClosedDrops
	a.CADBusy += b.CADBusy
	a.DutyWaits += b.DutyWaits
	a.Backoffs += b.Backoffs
	a.AirtimeSeconds += b.AirtimeSeconds
	a.VirtualSeconds += b.VirtualSeconds
	return a
}
