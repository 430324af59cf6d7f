package vehiclekey

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/protocol"
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
// or over the session's shared LoRa medium when Options.Medium is set.
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
	// Retry is the establishment ARQ policy. The zero value picks the
	// transport's profile: virtual seconds on a shared medium (a
	// session medium or a lora:// endpoint), milliseconds otherwise.
	Retry RetryPolicy
}

// RunPlatoon drives one complete platoon session from this session's
// trained scheme: N concurrent pairwise establishments, a group rekey
// sealed under the pairwise channels, the configured departures, and a
// survivor rekey at the next epoch. Over a session medium
// (Options.Medium) all members contend for the shared hop channels;
// otherwise the run uses the configured endpoint, which a lora://
// endpoint resolves to a process-wide shared medium.
func (s *Session) RunPlatoon(cfg PlatoonConfig) (PlatoonReport, error) {
	if cfg.Members <= 0 {
		cfg.Members = 4
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
	ep := cfg.Endpoint
	if ep == "" {
		ep = fmt.Sprintf("mem://vehiclekey-platoon-%d", s.opts.Seed)
	}
	listen := func() (transport.Listener, error) { return transport.Listen(ep) }
	dial := func(uint64) (transport.Conn, error) { return transport.Dial(ep) }
	if s.medium != nil {
		listen = func() (transport.Listener, error) { return s.medium.Listen() }
		dial = func(member uint64) (transport.Conn, error) { return s.medium.Dial(fmt.Sprintf("veh-%d", member)) }
	}
	sc := trace.NewScenario(s.opts.Environment, s.opts.Link)
	sc.SpeedAKmh = s.opts.SpeedKmh
	return group.Drive(group.DriveConfig{
		Template: s.sys,
		Scenario: sc,
		Seed:     s.opts.Seed,
		Windows:  cfg.Windows,
		Members:  cfg.Members,
		Leavers:  leavers,
		Listen:   listen,
		Dial:     dial,
		Retry:    cfg.Retry,
		Recorder: s.rec,
	})
}
