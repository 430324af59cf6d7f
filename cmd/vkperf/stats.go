package main

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// maxRSSMB is the process's peak resident set size in MB (getrusage;
// Linux reports kilobytes).
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// usage is a reading of the process's cumulative heap allocation,
// collections and CPU time (user plus system).
type usage struct {
	alloc uint64
	gc    uint32
	cpu   time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{alloc: ms.TotalAlloc, gc: ms.NumGC, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since is the usage accrued between u and a later reading.
func (u usage) since(before usage) usage {
	return usage{alloc: u.alloc - before.alloc, gc: u.gc - before.gc, cpu: u.cpu - before.cpu}
}

// comparison is the agreement check between the two ends of a session.
// A block both ends confirmed with different keys is a wrong output. A
// block only one end confirmed is not: over a lossy link no protocol can
// make both ends sure the last message arrived, so it is counted apart
// (protocol.one_sided_rounds) rather than as a failed session.
type comparison struct {
	rounds    int  // key blocks either end opened
	confirmed int  // blocks both ends confirmed with the same key
	mismatch  bool // a block both ends confirmed, with different keys
	oneSided  int  // blocks only one end confirmed
}

// compareEnds matches the vehicle's (Bob's) outcomes with the server's
// or gateway's (Alice's), round by round.
func compareEnds(bob, alice []protocol.KeyOutcome) comparison {
	c := comparison{rounds: max(len(bob), len(alice))}
	for r := 0; r < c.rounds; r++ {
		var b, a protocol.KeyOutcome
		if r < len(bob) {
			b = bob[r]
		}
		if r < len(alice) {
			a = alice[r]
		}
		switch {
		case b.Confirmed && a.Confirmed:
			if subtle.ConstantTimeCompare(b.Key, a.Key) != 1 {
				c.mismatch = true
			} else {
				c.confirmed++
			}
		case b.Confirmed != a.Confirmed:
			c.oneSided++
		}
	}
	return c
}

// keyDigest fingerprints a session's confirmed keys, so two runs of the
// same inputs can be compared without keeping the keys.
func keyDigest(session string, outs []protocol.KeyOutcome) string {
	h := sha256.New()
	h.Write([]byte(session))
	for _, o := range outs {
		if o.Confirmed {
			_, _ = fmt.Fprintf(h, "/%d:", o.Round)
			h.Write(o.Key)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// addDelta adds, to dst, every counter's growth and every histogram's
// sum growth (under name+"_sum") between two snapshots of one registry,
// so only the measured units count, not warm-up traffic.
func addDelta(dst map[string]float64, before, after obs.Snapshot) {
	for name, v := range after.Counters {
		dst[name] += float64(v - before.Counters[name])
	}
	for name, h := range after.Histograms {
		dst[name+"_sum"] += h.Sum - before.Histograms[name].Sum
	}
}
