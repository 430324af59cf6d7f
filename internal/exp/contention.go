package exp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/lora"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/trace"
)

func init() {
	register("density", DensityExp)
	register("airtime", AirtimeExp)
}

// contentionResult aggregates one shared-medium run.
type contentionResult struct {
	confirmed int        // keys confirmed on the vehicle side
	sessions  int        // vehicles that confirmed at least one key
	meanTTK   float64    // mean virtual time-to-last-key over those vehicles
	stats     lora.Stats // final MAC counters
}

// runContention drives one N-vehicle × one-gateway deployment over a
// fresh lockstep medium: the full serving stack (hello redundancy, ARQ,
// reconciliation) with the trained Vehicle-Key system on both ends.
// Deterministic: the medium serializes every device, all randomness
// comes from mediumSeed, and links and scheme clones are created in a
// fixed order before any goroutine starts.
func runContention(sys *core.System, sc trace.Scenario, sysCfg core.Config,
	mc lora.MediumConfig, mediumSeed int64, vehicles, windows int) (contentionResult, error) {
	mc.Lockstep = true
	mc.Seed = mediumSeed
	m, err := lora.NewMedium(mc)
	if err != nil {
		return contentionResult{}, err
	}
	defer func() { _ = m.Close() }()

	type session struct {
		vconn, gconn *lora.Conn
		vsys, gsys   *core.System
		jitter       time.Duration
		vOut         []protocol.KeyOutcome
		vErr         error
		ttk          float64
	}
	sessions := make([]*session, vehicles)
	for i := range sessions {
		v, g, err := m.Link(fmt.Sprintf("veh-%d", i))
		if err != nil {
			return contentionResult{}, err
		}
		jitter := rng.Stream(mediumSeed, "exp/contention/jitter", i).Uniform(0, 2)
		sessions[i] = &session{
			vconn:  v,
			gconn:  g,
			vsys:   sys.Clone(),
			gsys:   sys.Clone(),
			jitter: time.Duration(jitter * float64(time.Second)),
		}
	}

	var wg sync.WaitGroup
	for i, s := range sessions {
		i, s := i, s
		wg.Add(1)
		go func() { // vehicle: staggered ignition, then the client stack
			defer wg.Done()
			defer func() { _ = s.vconn.Close() }()
			if err := s.vconn.Wait(s.jitter); err != nil {
				s.vErr = err
				return
			}
			s.vOut, s.vErr = server.RunVehicle(s.vconn, s.vsys, sc, sysCfg, mediumSeed,
				server.Vehicle{ID: uint64(i), Windows: windows, HelloCopies: 2},
				protocol.WithRetryPolicy(group.SharedMediumRetry))
			s.ttk = s.vconn.LastActive()
		}()
		wg.Add(1)
		go func() { // gateway: shared window derivation + the Alice role
			defer wg.Done()
			defer func() { _ = s.gconn.Close() }()
			aliceWin, _, err := server.SessionWindowsFor(sc, sysCfg, mediumSeed, uint64(i), windows, trace.Alice)
			if err != nil {
				return
			}
			node := protocol.NewNode(s.gsys, s.gconn, server.SessionName(uint64(i)),
				protocol.WithRetryPolicy(group.SharedMediumRetry))
			// The hello copies land as garbage envelopes the ARQ layer
			// skips, as on the real server after its hello decode.
			_, _ = node.RunAlice(aliceWin)
		}()
	}
	wg.Wait()

	res := contentionResult{stats: m.Stats()}
	for _, s := range sessions {
		if s.vErr != nil {
			continue
		}
		got := 0
		for _, ko := range s.vOut {
			if ko.Confirmed {
				got++
			}
		}
		if got > 0 {
			res.confirmed += got
			res.sessions++
			res.meanTTK += s.ttk
		}
	}
	if res.sessions > 0 {
		res.meanTTK /= float64(res.sessions)
	}
	return res, nil
}

// keysPerVirtualMinute is the medium-level key rate.
func keysPerVirtualMinute(r contentionResult) float64 {
	if r.stats.VirtualSeconds == 0 {
		return 0
	}
	return float64(r.confirmed) / r.stats.VirtualSeconds * 60
}

// DensityExp sweeps vehicle density on one shared medium: key rate and
// time-to-key degrade as collisions and CAD backoffs eat the channel.
// This is the many-vehicle experiment the point-to-point transports
// cannot express — every session contends for the same hop channels.
func DensityExp(cfg RunConfig) (Report, error) {
	r := Report{
		ID:     "density",
		Title:  "Key establishment vs. vehicle density on one shared LoRa medium",
		Header: []string{"vehicles", "keys", "keys/vmin", "mean TTK (vs)", "collision %", "cad busy/frame", "airtime util %", "virtual s"},
		Notes: []string{
			"lockstep shared medium: 4 hop channels, capture 6 dB, CAD + backoff; TTK and the clock are virtual seconds",
		},
	}
	grid := []int{2, 4, 8}
	if cfg.Quick {
		grid = []int{2, 3}
	}
	const windows = 16 // two rounds of probing material per session
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	sysCfg := core.DefaultConfig()
	sys, _, _, err := trainFor(sc, cfg, sysCfg)
	if err != nil {
		return Report{}, err
	}
	rows, err := parMap(cfg, "density", len(grid), func(i int, _ *rng.Source) ([]string, error) {
		n := grid[i]
		res, err := runContention(sys, sc, sysCfg,
			lora.MediumConfig{Channels: 4, Recorder: cfg.Obs},
			rng.SubSeed(cfg.Seed, "exp/density", n), n, windows)
		if err != nil {
			return nil, err
		}
		s := res.stats
		collPct, cadPerFrame, util := 0.0, 0.0, 0.0
		if s.Frames > 0 {
			collPct = float64(s.Collided) / float64(s.Frames)
			cadPerFrame = float64(s.CADBusy) / float64(s.Frames)
		}
		if s.VirtualSeconds > 0 {
			util = s.AirtimeSeconds / (s.VirtualSeconds * 4)
		}
		return []string{f("%d", n), f("%d", res.confirmed), f("%.3f", keysPerVirtualMinute(res)),
			f("%.1f", res.meanTTK), pct(collPct), f("%.3f", cadPerFrame), pct(util),
			f("%.1f", s.VirtualSeconds)}, nil
	})
	if err != nil {
		return Report{}, err
	}
	r.Rows = rows
	return r, nil
}

// AirtimeExp fixes the fleet and sweeps the duty-cycle budget: probing
// under a regulatory airtime cap pays for every frame with credit-wait
// time, stretching time-to-key until the ARQ gives up.
func AirtimeExp(cfg RunConfig) (Report, error) {
	r := Report{
		ID:     "airtime",
		Title:  "Airtime-budgeted probing: duty-cycle caps vs. key establishment",
		Header: []string{"duty", "keys", "keys/vmin", "mean TTK (vs)", "duty waits", "cad dropped", "virtual s"},
		Notes: []string{
			"3 vehicles on 4 hop channels; duty is the allowed time-on-air fraction per device (1 = uncapped)",
		},
	}
	grid := []float64{1, 0.1, 0.02}
	if cfg.Quick {
		grid = []float64{1, 0.02}
	}
	const windows = 16 // two rounds of probing material per session
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	sysCfg := core.DefaultConfig()
	sys, _, _, err := trainFor(sc, cfg, sysCfg)
	if err != nil {
		return Report{}, err
	}
	rows, err := parMap(cfg, "airtime", len(grid), func(i int, _ *rng.Source) ([]string, error) {
		duty := grid[i]
		res, err := runContention(sys, sc, sysCfg,
			lora.MediumConfig{Channels: 4, DutyCycle: duty, Recorder: cfg.Obs},
			rng.SubSeed(cfg.Seed, "exp/airtime", i), 3, windows)
		if err != nil {
			return nil, err
		}
		s := res.stats
		return []string{f("%.2f", duty), f("%d", res.confirmed), f("%.3f", keysPerVirtualMinute(res)),
			f("%.1f", res.meanTTK), f("%d", s.DutyWaits), f("%d", s.CADDropped),
			f("%.1f", s.VirtualSeconds)}, nil
	})
	if err != nil {
		return Report{}, err
	}
	r.Rows = rows
	return r, nil
}
