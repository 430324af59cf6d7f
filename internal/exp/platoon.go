package exp

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/lora"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
)

func init() {
	register("platoon", PlatoonExp)
}

// platoonPoint is one grid entry: a platoon size and how many members
// depart after the first group rekey.
type platoonPoint struct {
	members int
	leavers int
}

// platoonLeavers picks the departing member IDs for a grid point —
// a fixed, spread-out choice so the churn pattern is part of the
// experiment definition, not a random draw.
func platoonLeavers(p platoonPoint) map[uint64]bool {
	out := make(map[uint64]bool, p.leavers)
	out[1] = true
	if p.leavers > 1 {
		out[uint64(p.members-2)] = true
	}
	return out
}

// runPlatoon drives one full platoon session — concurrent pairwise
// establishment, epoch-1 group rekey, the configured departures, and
// the epoch-2 survivor rekey — over a fresh lockstep shared medium,
// with the default 16 windows per member and the shared-medium timing
// profile. Deterministic: the medium serializes every device, links
// are dialed in member order before any session goroutine starts, and
// all randomness descends from seed.
func runPlatoon(sys *core.System, seed int64, p platoonPoint, cfg RunConfig) (group.DriveResult, error) {
	m, err := lora.NewMedium(lora.MediumConfig{
		Channels: 4,
		Lockstep: true,
		Seed:     rng.SubSeed(seed, "exp/platoon/medium", p.members),
		Recorder: cfg.Obs,
	})
	if err != nil {
		return group.DriveResult{}, err
	}
	defer func() { _ = m.Close() }()
	return group.Drive(group.DriveConfig{
		Template: sys,
		Scenario: trace.NewScenario(channel.Urban, channel.V2I),
		Seed:     seed,
		Members:  p.members,
		Leavers:  platoonLeavers(p),
		Listen:   func() (transport.Listener, error) { return m.Listen() },
		Dial:     func(member uint64) (transport.Conn, error) { return m.Dial(fmt.Sprintf("veh-%d", member)) },
		Recorder: cfg.Obs,
	})
}

// platoonUnanimous reports whether every member's accepted digest
// agrees within each epoch and the final epoch matches the hub's key.
func platoonUnanimous(res group.DriveResult) bool {
	for epoch, byMember := range res.Accepted {
		want := ""
		for _, d := range byMember {
			if want == "" {
				want = d
			}
			if d != want {
				return false
			}
		}
		//vklint:ignore consttime -- key digests are published accounting fingerprints, not secret material
		if epoch == res.FinalEpoch && want != res.HubDigest {
			return false
		}
	}
	return true
}

// PlatoonExp runs the group key schedule at platoon scale on one shared
// lockstep LoRa medium: N concurrent pairwise establishments contending
// for the hop channels, an epoch-1 group rekey fanned out under the
// pairwise channels, churn departures, and the epoch-2 survivor rekey.
// Every reported quantity is schedule-independent — membership counts,
// epochs, digest unanimity — never wall or virtual timing, so the rows
// are bit-identical at any parallelism (TestParallelEquivalence).
func PlatoonExp(cfg RunConfig) (Report, error) {
	r := Report{
		ID:     "platoon",
		Title:  "Platoon-scale group rekeying over one shared LoRa medium",
		Header: []string{"members", "leavers", "established", "e1 acked", "e2 acked", "leaves", "final epoch", "unanimous"},
		Notes: []string{
			"lockstep shared medium: 4 hop channels, CAD + backoff; rekey epochs are sealed under the pairwise keys",
			"unanimous = every member's accepted key digest agrees per epoch and matches the hub at the final epoch",
		},
	}
	grid := []platoonPoint{{4, 1}, {8, 2}}
	if cfg.Quick {
		grid = []platoonPoint{{3, 1}}
	}
	sys, err := core.NewScheme("lora-key", core.DefaultConfig(), rng.New(cfg.Seed).Derive("exp/platoon/sys"))
	if err != nil {
		return Report{}, err
	}
	rows, err := parMap(cfg, "platoon", len(grid), func(i int, _ *rng.Source) ([]string, error) {
		p := grid[i]
		res, err := runPlatoon(sys, rng.SubSeed(cfg.Seed, "exp/platoon", i), p, cfg)
		if err != nil {
			return nil, err
		}
		acked := func(epoch int) int {
			if epoch <= len(res.Rekeys) {
				return len(res.Rekeys[epoch-1].Acked)
			}
			return 0
		}
		return []string{
			f("%d", p.members), f("%d", p.leavers), f("%d", len(res.Established)),
			f("%d", acked(1)), f("%d", acked(2)), f("%d", res.LeavesSeen),
			f("%d", res.FinalEpoch), f("%t", platoonUnanimous(res)),
		}, nil
	})
	if err != nil {
		return Report{}, err
	}
	r.Rows = rows
	return r, nil
}
