package vehiclekey

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/group"
	"repro/internal/pipeline"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"
)

// RetryPolicy re-exports the protocol ARQ policy for platoon runs.
type RetryPolicy = protocol.RetryPolicy

// PlatoonReport is one platoon run's accounting: established members,
// per-epoch rekey fan-out results, departures, and the key digests each
// member accepted. Every field is schedule-independent (counts, epochs,
// digests — never timing), so lockstep runs compare byte-for-byte.
type PlatoonReport = group.DriveResult

// PlatoonConfig configures Session.RunPlatoon. The zero value runs a
// four-member platoon with one departure over an in-memory endpoint —
// or over the session's shared LoRa medium when one was attached with
// WithMedium.
type PlatoonConfig struct {
	// Members is the platoon size, hub excluded (default 4).
	Members int
	// Leavers are the members that depart after accepting the first
	// group key, triggering the churn rekey (default: member 1).
	// An explicit empty non-nil slice means nobody leaves.
	Leavers []uint64
	// Windows is the probing-window count per pairwise establishment
	// (default 16 — two reconciliation rounds).
	Windows int
	// Endpoint is the transport endpoint used when the session has no
	// shared medium (default a session-scoped mem:// endpoint).
	Endpoint string
	// Retry is the establishment ARQ policy. The zero value picks a
	// profile matching the transport: virtual seconds on a shared
	// medium, milliseconds on mem/tcp.
	Retry RetryPolicy
	// Tick is the receive-poll granularity in conn time (default: 2s
	// on a shared medium, 20ms otherwise).
	Tick time.Duration
	// JoinCopies bounds each member's join handshake retransmits
	// (default: 8 on a shared medium, where the whole platoon's joins
	// collide in the ignition window; 1 otherwise).
	JoinCopies int
	// LeaveWait is the hub's wall-clock failsafe while waiting for the
	// configured departures (default 60s; the departures themselves
	// are event-driven).
	LeaveWait time.Duration
}

// RunPlatoon drives one complete platoon session from this session's
// trained scheme: N concurrent pairwise establishments, a group rekey
// sealed under the pairwise channels, the configured departures, and a
// survivor rekey at the next epoch. Over a session medium (WithMedium)
// all members contend for the shared hop channels; otherwise the run
// uses the configured point-to-point endpoint.
func (s *Session) RunPlatoon(cfg PlatoonConfig) (PlatoonReport, error) {
	if cfg.Members <= 0 {
		cfg.Members = 4
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 16
	}
	if cfg.Leavers == nil {
		cfg.Leavers = []uint64{1}
	}
	leavers := make(map[uint64]bool, len(cfg.Leavers))
	for _, m := range cfg.Leavers {
		if m >= uint64(cfg.Members) {
			return PlatoonReport{}, fmt.Errorf("vehiclekey: platoon leaver %d outside members [0,%d)", m, cfg.Members)
		}
		leavers[m] = true
	}

	// The shared-medium timing profile applies both to a session medium
	// attached with WithMedium and to a lora:// endpoint resolved by the
	// transport registry — either way the conn clock runs in virtual
	// seconds and joins contend at ignition.
	shared := s.medium != nil || strings.HasPrefix(cfg.Endpoint, "lora://")
	if cfg.Tick <= 0 {
		if shared {
			cfg.Tick = 2 * time.Second
		} else {
			cfg.Tick = 20 * time.Millisecond
		}
	}
	if (cfg.Retry == RetryPolicy{}) {
		if shared {
			// One protocol message is a multi-fragment burst of a second
			// or two on the air (the contention experiments' profile).
			cfg.Retry = RetryPolicy{Timeout: 4 * time.Second, MaxTimeout: 16 * time.Second, Backoff: 1.6, MaxRetries: 8}
		} else {
			cfg.Retry = RetryPolicy{Timeout: 50 * time.Millisecond, MaxRetries: 8}
		}
	}
	if cfg.JoinCopies <= 0 {
		cfg.JoinCopies = 1
		if shared {
			cfg.JoinCopies = 8 // the whole platoon's joins collide at ignition
		}
	}

	sc := trace.NewScenario(s.opts.Environment, s.opts.Link)
	sc.SpeedAKmh = s.opts.SpeedKmh
	dc := group.DriveConfig{
		Members: cfg.Members,
		Leavers: leavers,
		Seed:    s.opts.Seed,
		Hub: group.HubConfig{
			Resolve: func(member uint64, n int) (pipeline.Scheme, [][]float64, error) {
				alice, _, err := server.SessionWindowsFor(sc, s.opts.System, s.opts.Seed, member, n, trace.Alice)
				return s.sys.Clone(), alice, err
			},
			Retry:    cfg.Retry,
			Tick:     cfg.Tick,
			Recorder: s.rec,
		},
		Member: func(member uint64) (group.MemberConfig, error) {
			_, bob, err := server.SessionWindowsFor(sc, s.opts.System, s.opts.Seed, member, cfg.Windows, trace.Bob)
			if err != nil {
				return group.MemberConfig{}, err
			}
			return group.MemberConfig{
				Scheme:     s.sys.Clone(),
				Windows:    bob,
				Retry:      cfg.Retry,
				Tick:       cfg.Tick,
				JoinCopies: cfg.JoinCopies,
				Recorder:   s.rec,
			}, nil
		},
		// KeyWait stays 0: member waits are event-driven (required on a
		// lockstep medium, harmless elsewhere — Drive's teardown closes
		// every conn).
		LeaveWait: cfg.LeaveWait,
	}
	if s.medium != nil {
		dc.Listen = func() (transport.Listener, error) { return s.medium.Listen() }
		dc.Dial = func(member uint64) (transport.Conn, error) {
			return s.medium.Dial(fmt.Sprintf("veh-%d", member))
		}
	} else {
		// A lora:// endpoint resolves through the transport registry to a
		// process-wide shared medium; mem/tcp/udp endpoints are
		// point-to-point.
		dc.Endpoint = cfg.Endpoint
		if dc.Endpoint == "" {
			dc.Endpoint = fmt.Sprintf("mem://vehiclekey-platoon-%d", s.opts.Seed)
		}
	}
	return group.Drive(dc)
}
