// Command vkperf benchmarks Vehicle-Key key-establishment sessions end
// to end and layer by layer. It trains the vehicle-key template, runs
// one workload for a wall-clock budget, checks that the two ends of every
// session confirmed the same keys, and prints every metric as
// "name value unit" (percentiles with their sample count), then one JSON
// result line.
//
//	vkperf -workload fleet-cold|fleet-warm|lora-fleet -seed N [-seconds S] [-trace 0|1] [-trace-out FILE]
//
// Everything runs in one process sized for two CPUs: two closed-loop
// client goroutines and two server workers on the loopback interface, or
// one lockstep LoRa medium at a time. -seed generates only the inputs
// (vehicle IDs and medium seeds); the model and the server's window
// derivation use fixed seeds.
//
// With -trace 1 the budget is split: an untraced half, then a half in
// which the pipeline stages, the conns, the server's recorder and its
// session hook are decorated from this package. The traced half's spans
// give the per-layer metrics and are written as Chrome trace-event JSON;
// the two halves' session rates give the tracing overhead.
//
// README.md holds the metric glossary and the reason for each workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/obs"
)

const (
	// modelSeed and windowSeed are fixed, so that -seed moves only the
	// inputs: modelSeed trains the template (vkload's default seed),
	// windowSeed is the deployment's shared window-derivation seed.
	modelSeed  = 21
	windowSeed = 21

	clients = 2 // closed-loop client goroutines
	workers = 2 // server workers

	fleetWindows  = 8  // probing windows per fleet session
	warmVehicles  = 16 // fleet-warm's returning vehicles
	loraPairs     = 8  // vehicle/gateway pairs per lora-fleet cycle
	loraWindows   = 16 // probing windows per lora-fleet session
	loraChannels  = 4  // hop channels per medium
	setupReps     = 3  // set-ups per run; setup_s is their median
	trainWindows  = 160
	trainEpochs   = 12
	defaultBudget = 20 // seconds

	// Deterministic prefixes: key yield and the lora counts are
	// measured on these, so they repeat exactly for a seed. The timed
	// region never ends before its prefix is done.
	coldDetSessions = 32
	loraDetCycles   = 64

	sessionWatchdog = 30 * time.Second
	cycleWatchdog   = 60 * time.Second
)

var workloads = []string{"fleet-cold", "fleet-warm", "lora-fleet"}

// metricSpec is one metric BENCHMARK.json lists.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer are BENCHMARK.json's two metric lists, in its
// order. The result line carries the first set on an untraced run and
// the second on a traced one.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"session_p50_ms", "ms"},
	{"session_p90_ms", "ms"},
}

var perLayer = []metricSpec{
	{"setup.dataset_s", "s"},
	{"setup.train_s", "s"},
	{"trace.windows_per_session", "count"},
	{"trace.windows_share", "ratio"},
	{"server.window_cache_hit_ratio", "ratio"},
	{"server.session_ms", "ms"},
	{"core.predict_memo_hit_ratio", "ratio"},
	{"pipeline.key_confirm_ratio", "ratio"},
	{"pipeline.keys_per_session", "count"},
	{"pipeline.predict_ms", "ms"},
	{"pipeline.predict_calls_per_session", "count"},
	{"pipeline.quantize_us", "us"},
	{"pipeline.reconcile_us", "us"},
	{"pipeline.amplify_us", "us"},
	{"protocol.msgs_per_session", "count"},
	{"protocol.retransmits", "count"},
	{"protocol.timeouts", "count"},
	{"protocol.one_sided_rounds", "count"},
	{"protocol.self_ms", "ms"},
	{"transport.send_us", "us"},
	{"transport.bytes_per_session", "bytes"},
	{"transport.recv_wait_ms", "ms"},
	{"lora.frames_per_session", "count"},
	{"lora.delivered_ratio", "ratio"},
	{"lora.collision_ratio", "ratio"},
	{"lora.cad_busy_per_frame", "count"},
	{"lora.airtime_s_per_session", "virtual_s"},
	{"lora.backoff_s_per_session", "virtual_s"},
	{"lora.virtual_ttk_s", "virtual_s"},
	{"go.alloc_kb_per_session", "KB"},
	{"go.gc_cycles", "count"},
	{"go.max_rss_mb", "MB"},
}

// config is one run's settings. Tests shrink the model and fix the
// amount of work through the fields flags do not set.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string

	trainWindows, trainEpochs, setupReps int
	// units, when positive, runs exactly that many timed sessions (fleet)
	// or cycles (lora-fleet) per phase instead of the time budget.
	units int
}

// floor is the fewest timed units a phase runs: its deterministic
// prefix, or exactly units when set.
func (c config) floor(det int) int {
	if c.units > 0 {
		return c.units
	}
	return det
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("vkperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "input seed: vehicle IDs and medium seeds")
	seconds := fs.Float64("seconds", defaultBudget, "wall-clock budget of the timed region")
	traced := fs.Int("trace", 0, "1 splits the budget into an untraced and a traced half and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/vkperf-trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1, traceOut: *traceOut,
		trainWindows: trainWindows, trainEpochs: trainEpochs, setupReps: setupReps,
	}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	case !slices.Contains(workloads, cfg.workload):
		return cfg, fmt.Errorf("-workload must be one of %s", strings.Join(workloads, ", "))
	case *traced != 0 && *traced != 1:
		return cfg, errors.New("-trace must be 0 or 1")
	case cfg.seconds < 0 || math.IsNaN(cfg.seconds) || math.IsInf(cfg.seconds, 0):
		return cfg, errors.New("-seconds must be a non-negative number")
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("vkperf-trace-%s-%d.json", cfg.workload, cfg.seed))
	}
	return cfg, nil
}

// vehicleID is the i-th vehicle a seed generates. IDs of distinct
// seeds or indices never collide; SessionWindows hashes them into
// independent channel realizations.
func vehicleID(seed int64, i int) uint64 { return uint64(seed)<<20 | uint64(i) }

// phase is one timed region's outcome.
type phase struct {
	wall  time.Duration
	units int // timed sessions (fleet) or cycles (lora-fleet)

	attempted, failed, mismatches int
	oneSided                      int // key blocks one end confirmed: the timed region (fleet) or the prefix (lora)
	keys                          int // keys both ends confirmed
	completed                     []completion
	queueWait                     []float64 // seconds, fleet only
	digests                       map[int]string

	// The deterministic prefix.
	detRounds, detConfirmed int
	detSessions             int
	ttk                     []float64  // lora: virtual time-to-key per vehicle
	medium                  lora.Stats // lora: summed MAC counters
	frames                  uint64     // lora: frames over every timed cycle

	use usage // over the timed region

	// Traced phases only.
	tr     *tracer
	counts map[string]float64 // registry growth: the timed region (fleet) or the prefix (lora)
}

func newPhase() *phase {
	return &phase{digests: make(map[int]string), counts: make(map[string]float64)}
}

// completion is one completed session, in seconds: when it returned,
// counted from the start of the timed region, and how long it took.
type completion struct{ at, latency float64 }

// groups is how many runs of consecutive completions the session rate
// and latency percentiles are measured over.
const groups = 10

// group is one run of consecutive completions.
type group struct{ rate, p50, p90 float64 }

// grouped splits the completed sessions, in completion order, into
// groups runs of equal count. A run's rate is its sessions ÷ the wall
// time from the previous run's last completion (or the region's start)
// to its own last one. The end-to-end figures are medians over the
// runs: a stall of the shared host slows one or two runs, not the
// median, and counting sessions rather than seconds keeps the rate
// unquantized even at a few sessions per second.
func (p *phase) grouped() []group {
	done := append([]completion(nil), p.completed...)
	sort.Slice(done, func(i, j int) bool { return done[i].at < done[j].at })
	n := len(done)
	k := min(groups, n)
	out := make([]group, 0, k)
	prev := 0.0
	for g := 0; g < k; g++ {
		run := done[g*n/k : (g+1)*n/k]
		lat := make([]float64, len(run))
		for i, c := range run {
			lat[i] = c.latency
		}
		last := run[len(run)-1].at
		out = append(out, group{rate: ratio(float64(len(run)), last-prev), p50: quantile(lat, 0.5), p90: quantile(lat, 0.9)})
		prev = last
	}
	return out
}

// perGroup is the median over the groups of one of their figures.
func perGroup(gs []group, f func(group) float64) float64 {
	xs := make([]float64, len(gs))
	for i, g := range gs {
		xs[i] = f(g)
	}
	return median(xs)
}

func (p *phase) sessionsPerSec() float64 {
	return perGroup(p.grouped(), func(g group) float64 { return g.rate })
}

type workload interface {
	ready(*core.System) (func(), error)
	phase(b *bench, traced bool, seconds float64) (*phase, error)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		_, _ = fmt.Fprintf(os.Stderr, "vkperf: %v\n", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		_, _ = fmt.Fprintf(os.Stderr, "vkperf: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		_, _ = fmt.Fprintln(os.Stderr, "vkperf: output check failed (see above)")
		os.Exit(1)
	}
}

func newWorkload(cfg config) workload {
	if cfg.workload == "lora-fleet" {
		return newLoraFleet(cfg)
	}
	return newFleet(cfg)
}

// run sets up, runs the workload's phases, and writes the report to w.
func run(cfg config, w io.Writer) (result, error) {
	wl := newWorkload(cfg)
	b, err := newBench(cfg, wl.ready)
	if err != nil {
		return result{}, err
	}
	var plain, traced *phase
	if !cfg.trace {
		if plain, err = wl.phase(b, false, cfg.seconds); err != nil {
			return result{}, err
		}
	} else {
		if plain, err = wl.phase(b, false, cfg.seconds/2); err != nil {
			return result{}, err
		}
		if traced, err = wl.phase(b, true, cfg.seconds/2); err != nil {
			return result{}, err
		}
		if err := traced.tr.writeChrome(cfg.traceOut); err != nil {
			return result{}, err
		}
	}
	rep, res, err := report(cfg, b, plain, traced)
	if err != nil {
		return result{}, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, fmt.Errorf("result: %w", err)
	}
	rep.WriteString(string(line) + "\n")
	if _, err := io.WriteString(w, rep.String()); err != nil {
		return result{}, fmt.Errorf("write report: %w", err)
	}
	return res, nil
}

// metrics collects the printed metrics in order.
type metrics struct {
	out    strings.Builder
	values map[string]jsonMetric
}

func (m *metrics) add(name string, v float64, unit string) {
	m.values[name] = jsonMetric{Value: v, Unit: unit}
	fmt.Fprintf(&m.out, "%s %s %s\n", name, formatValue(v), unit)
}

// addN adds a percentile with the number of samples behind it.
func (m *metrics) addN(name string, v float64, unit string, n int) {
	m.values[name] = jsonMetric{Value: v, Unit: unit}
	fmt.Fprintf(&m.out, "%s %s %s (n=%d)\n", name, formatValue(v), unit, n)
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// report computes every metric. End-to-end metrics always come from the
// untraced phase; per-layer ones from the traced phase, except the Go
// runtime's, which tracing itself would inflate.
func report(cfg config, b *bench, plain, traced *phase) (*strings.Builder, result, error) {
	m := &metrics{values: make(map[string]jsonMetric)}
	fmt.Fprintf(&m.out, "vkperf workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	// End to end.
	rss, err := maxRSSMB()
	if err != nil {
		return nil, result{}, err
	}
	p := plain
	m.add("setup_s", median(b.setupSec), "s")
	gs := p.grouped()
	m.add("sessions_per_s", perGroup(gs, func(g group) float64 { return g.rate }), "1/s")
	m.addN("session_p50_ms", 1e3*perGroup(gs, func(g group) float64 { return g.p50 }), "ms", len(p.completed))
	m.addN("session_p90_ms", 1e3*perGroup(gs, func(g group) float64 { return g.p90 }), "ms", len(p.completed))
	for _, g := range gs {
		fmt.Fprintf(&m.out, "  run of %d sessions: %.4g/s p50 %.4g ms p90 %.4g ms\n", len(p.completed)/len(gs), g.rate, 1e3*g.p50, 1e3*g.p90)
	}
	m.add("go.max_rss_mb", rss, "MB")
	m.add("keys_per_s", ratio(float64(p.keys), p.wall.Seconds()), "1/s")
	m.add("cpu_ms_per_session", 1e3*ratio(p.use.cpu.Seconds(), float64(p.attempted)), "ms")
	m.add("failed_ratio", ratio(float64(p.failed), float64(p.attempted)), "ratio")
	fmt.Fprintf(&m.out, "attempted %d sessions in %.3f s (%d timed units; setup runs %v s)\n",
		p.attempted, p.wall.Seconds(), p.units, b.setupSec)

	correct := b.setupOK && p.mismatches == 0
	if !b.setupOK {
		m.out.WriteString("check: set-up repetitions trained different models\n")
	}
	attempted, failed := p.attempted, p.failed
	set := endToEnd
	if traced != nil {
		set = perLayer
		layers(m, cfg, b, plain, traced)
		attempted += traced.attempted
		failed += traced.failed
		correct = correct && traced.mismatches == 0
		// Decoration must not change a single key: every unit both halves
		// completed carries the same key digest.
		for i, d := range traced.digests {
			if pd, ok := plain.digests[i]; ok && pd != d {
				correct = false
				fmt.Fprintf(&m.out, "check: traced unit %d confirmed different keys than untraced\n", i)
			}
		}
		if cfg.workload == "lora-fleet" && traced.medium != plain.medium {
			correct = false
			m.out.WriteString("check: traced cycles' MAC counters differ from untraced\n")
		}
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]jsonMetric)}
	for _, s := range set {
		v, ok := m.values[s.name]
		if !ok || v.Unit != s.unit {
			return nil, result{}, fmt.Errorf("metric %s (%s) was not measured", s.name, s.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, result{}, fmt.Errorf("metric %s is not finite", s.name)
		}
		res.Metrics[s.name] = v
	}
	return &m.out, res, nil
}

// layers adds the per-layer metrics of a traced run.
func layers(m *metrics, cfg config, b *bench, plain, t *phase) {
	tr := t.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sessions := float64(len(tr.sessions))
	perSession := func(f func(*sessionAgg) float64) []float64 {
		out := make([]float64, 0, len(tr.sessions))
		for _, agg := range tr.sessions {
			out = append(out, f(agg))
		}
		return out
	}
	samples := func(name string) []float64 { return tr.samples[name] }
	c := t.counts

	m.out.WriteString("-- per layer (traced half) --\n")
	m.add("setup.dataset_s", b.datasetSec, "s")
	m.add("setup.train_s", b.trainSec, "s")

	win := samples(spanWindows)
	m.addN("trace.windows_ms", 1e3*median(win), "ms", len(win))
	m.add("trace.windows_busy_s", sum(win), "s")
	m.add("trace.windows_per_session", ratio(float64(len(win)), sessions), "count")
	endTime := sum(samples(spanServer)) + tr.sessionTime
	m.add("trace.windows_share", ratio(sum(win), endTime), "ratio")

	hits := c[obs.Labeled(obs.CacheHits, "cache", "windows")]
	misses := c[windowCacheMiss]
	m.add("server.window_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	if cfg.workload != "lora-fleet" {
		m.addN("server.queue_wait_ms", 1e3*median(t.queueWait), "ms", len(t.queueWait))
	}
	alice := samples(spanServer)
	m.addN("server.session_ms", 1e3*median(alice), "ms", len(alice))

	phits := c[obs.Labeled(obs.CacheHits, "cache", "predictor")]
	pmisses := c[obs.Labeled(obs.CacheMisses, "cache", "predictor")]
	m.add("core.predict_memo_hit_ratio", ratio(phits, phits+pmisses), "ratio")

	// Key yield on the deterministic prefix: a function of the seed alone.
	m.add("pipeline.key_confirm_ratio", ratio(float64(t.detConfirmed), float64(t.detRounds)), "ratio")
	m.add("pipeline.keys_per_session", ratio(float64(t.detConfirmed), float64(t.detSessions)), "count")
	pred := samples(spanPredict)
	m.addN("pipeline.predict_ms", 1e3*median(pred), "ms", len(pred))
	m.add("pipeline.predict_calls_per_session", ratio(float64(len(pred)), sessions), "count")
	m.add("pipeline.predict_busy_s", sum(pred), "s")
	for _, st := range []struct{ span, name string }{
		{spanQuantize, "pipeline.quantize_us"},
		{spanReconcile, "pipeline.reconcile_us"},
		{spanAmplify, "pipeline.amplify_us"},
		{spanSend, "transport.send_us"},
	} {
		xs := samples(st.span)
		m.addN(st.name, 1e6*median(xs), "us", len(xs))
	}

	// Protocol counters cover the timed region on fleet-* and the
	// deterministic prefix on lora-fleet, so they repeat exactly there.
	counted := sessions
	if cfg.workload == "lora-fleet" {
		counted = float64(t.detSessions)
	}
	m.add("protocol.msgs_per_session", ratio(c[obs.ProtocolSent], counted), "count")
	m.add("protocol.retransmits", c[obs.ProtocolRetransmits], "count")
	m.add("protocol.timeouts", c[obs.ProtocolTimeouts], "count")
	m.add("protocol.one_sided_rounds", float64(t.oneSided), "count")
	self := perSession(func(a *sessionAgg) float64 { return a.self })
	m.addN("protocol.self_ms", 1e3*median(self), "ms", len(self))

	bytes := perSession(func(a *sessionAgg) float64 { return float64(a.bytes) })
	m.add("transport.bytes_per_session", ratio(sum(bytes), sessions), "bytes")
	recv := perSession(func(a *sessionAgg) float64 { return a.recv })
	m.addN("transport.recv_wait_ms", 1e3*median(recv), "ms", len(recv))

	s := t.medium
	det := float64(t.detSessions)
	m.add("lora.frames_per_session", ratio(float64(s.Frames), det), "count")
	m.add("lora.delivered_ratio", ratio(float64(s.Delivered), float64(s.Frames)), "ratio")
	m.add("lora.collision_ratio", ratio(float64(s.Collided), float64(s.Frames)), "ratio")
	m.add("lora.cad_busy_per_frame", ratio(float64(s.CADBusy), float64(s.Frames)), "count")
	m.add("lora.airtime_s_per_session", ratio(s.AirtimeSeconds, det), "virtual_s")
	m.add("lora.backoff_s_per_session", ratio(c[obs.LoraBackoffSeconds+"_sum"], det), "virtual_s")
	m.addN("lora.virtual_ttk_s", median(t.ttk), "virtual_s", len(t.ttk))
	if cfg.workload == "lora-fleet" {
		m.add("lora.wall_us_per_frame", 1e6*ratio(t.wall.Seconds(), float64(t.frames)), "us")
	}

	// The untraced half's allocation, free of the tracer's own.
	m.add("go.alloc_kb_per_session", ratio(float64(plain.use.alloc)/1024, float64(plain.attempted)), "KB")
	m.add("go.gc_cycles", float64(plain.use.gc), "count")

	m.add("trace.accounted_ratio", ratio(tr.accounted, tr.sessionTime), "ratio")
	m.add("tracing.overhead_pct", 100*(ratio(plain.sessionsPerSec(), t.sessionsPerSec())-1), "%")
	fmt.Fprintf(&m.out, "trace file %s (first %d sessions)\n", cfg.traceOut, keepSessions)
}
