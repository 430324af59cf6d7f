// Package exp contains one runner per figure and table of the paper's
// evaluation. Each runner regenerates the corresponding result — the same
// rows or series the paper reports — against the simulated substrate, and
// returns it as a printable Report. The cmd/vkbench binary and the
// repository-level benchmarks are thin wrappers over this package.
package exp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// RunConfig sizes the experiments.
type RunConfig struct {
	Seed    int64
	Samples int // dataset windows per scenario
	Epochs  int // predictor training epochs
	Quick   bool

	// Scheme restricts the cross-scheme comparison experiment
	// ("schemes") to one registered scheme name. Empty runs every
	// registered scheme. Figure runners ignore it: each figure fixes the
	// scheme set the paper compares.
	Scheme string

	// Parallelism is the worker count used to fan out each experiment's
	// grid points and RunAll's cross-experiment scheduling. 0 means one
	// worker per CPU; 1 forces serial execution. Reports are a pure
	// function of Seed regardless of this value — every unit of work
	// draws from its own (seed, experiment, index) sub-stream, so the
	// parallel output is bit-identical to the serial one (enforced by
	// TestParallelEquivalence).
	Parallelism int

	// Obs receives wall-clock timing observations (whole experiments and
	// individual work units). It is deliberately one-way: nothing read
	// from it ever reaches a Report, so instrumenting a run cannot
	// perturb the deterministic, Seed-only outputs. Nil means no
	// recording. Obs is excluded from every cache key (see cacheKey).
	Obs obs.Recorder
}

// recorder resolves the configured recorder, defaulting to the no-op.
func (c RunConfig) recorder() obs.Recorder { return obs.OrNop(c.Obs) }

// cacheKey renders the fields that determine an experiment's output —
// and only those. The Obs recorder must stay out: it is an interface
// whose rendering would vary by pointer address, and it has no influence
// on results. Parallelism is included so the equivalence tests comparing
// worker counts never serve one count's result to the other.
func (c RunConfig) cacheKey() string {
	return fmt.Sprintf("seed=%d samples=%d epochs=%d quick=%t par=%d scheme=%q",
		c.Seed, c.Samples, c.Epochs, c.Quick, c.Parallelism, c.Scheme)
}

// Default returns the full-size configuration; Quick returns a reduced
// one for fast regression runs.
func Default() RunConfig { return RunConfig{Seed: 1, Samples: 500, Epochs: 30} }

// Quick returns a configuration an order of magnitude faster, for smoke
// runs and benchmarks.
func Quick() RunConfig { return RunConfig{Seed: 1, Samples: 160, Epochs: 15, Quick: true} }

// Report is one regenerated figure or table.
type Report struct {
	ID     string // e.g. "fig12"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner regenerates one experiment.
type Runner func(RunConfig) (Report, error)

// registry maps experiment IDs to runners.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ErrUnknownID is wrapped by the error Run and RunAll return for an
// unregistered experiment ID, so callers can match it with errors.Is.
var ErrUnknownID = errors.New("unknown experiment")

// unknownIDError builds the stable not-found error: it always lists the
// valid IDs in sorted order, so the message is identical run to run and
// usable directly as CLI output.
func unknownIDError(id string) error {
	return fmt.Errorf("exp: %w %q; valid IDs: %s", ErrUnknownID, id, strings.Join(IDs(), ", "))
}

// Run executes one experiment by ID.
func Run(id string, cfg RunConfig) (Report, error) {
	r, ok := registry[id]
	if !ok {
		return Report{}, unknownIDError(id)
	}
	//vklint:ignore detrand -- wall time feeds only the metrics recorder, never a report
	started := time.Now()
	rep, err := r(cfg)
	//vklint:ignore detrand -- wall time feeds only the metrics recorder, never a report
	cfg.recorder().Observe(obs.Labeled(obs.ExpSeconds, "exp", id), time.Since(started).Seconds())
	return rep, err
}

// Markdown renders the report as a GitHub-flavored markdown table.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(r.Header)) + "\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

func f(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
