package protocol

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// roundSent is the compliant shape: a labeled name baked once, at
// package level, so the record call formats nothing.
var roundSent = obs.Labeled(obs.ProtocolSent, "kind", fmt.Sprint("round"))

// record formats recorder arguments on the hot path: under obs.Nop the
// strings are still built, then thrown away.
func record(rec obs.Recorder, reg *obs.Registry, round int, d time.Duration) {
	rec.Add(fmt.Sprintf("vk_round_%d_total", round), 1)              // want "obsnop"
	rec.Add(obs.Labeled(obs.ProtocolSent, "timeout", d.String()), 1) // want "obsnop"
	reg.Set(fmt.Sprint(round), 1)                                    // want "obsnop"
	rec.Add(roundSent, 1)
	rec.Observe(obs.ProtocolRoundSeconds, d.Seconds())
}

// notRecorders formats freely: neither call is a recorder method.
func notRecorders(c *obs.Counter, round int) error {
	c.Add(int64(len(fmt.Sprint(round))))
	return fmt.Errorf("round %d", round)
}

var (
	_ = record
	_ = notRecorders
)
