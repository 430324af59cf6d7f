package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Add("c", 2)
	r.Add("c", 3)
	r.Set("g", 1.5)
	r.Set("g", -2.25)
	r.Observe("h", 0.5)
	r.Observe("h", 0.5)

	s := r.Snapshot()
	if s.Counters["c"] != 5 {
		t.Errorf("counter = %d, want 5", s.Counters["c"])
	}
	if s.Gauges["g"] != -2.25 {
		t.Errorf("gauge = %v, want -2.25", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Sum != 1.0 {
		t.Errorf("histogram count=%d sum=%v, want 2 and 1.0", h.Count, h.Sum)
	}
}

// TestHistogramBucketEdges pins the le semantics: a sample equal to a
// bound lands in that bound's bucket, one above the largest bound lands
// in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	h.Observe(1)  // le="1"
	h.Observe(5)  // le="10"
	h.Observe(10) // le="10"
	h.Observe(11) // +Inf
	h.Observe(-3) // le="1"
	want := []int64{2, 2, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 24 {
		t.Errorf("sum = %v, want 24", h.Sum())
	}
}

func TestLabeledFamily(t *testing.T) {
	name := Labeled(PipelinePhaseSeconds, "phase", PhaseQuantize)
	if name != `vk_pipeline_phase_seconds{phase="quantize"}` {
		t.Fatalf("Labeled = %q", name)
	}
	if Family(name) != PipelinePhaseSeconds {
		t.Errorf("Family = %q", Family(name))
	}
	if labels(name) != `phase="quantize"` {
		t.Errorf("labels = %q", labels(name))
	}
	if Family("plain") != "plain" || labels("plain") != "" {
		t.Error("unlabeled name mishandled")
	}
}

func TestOrNop(t *testing.T) {
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) != Nop")
	}
	r := NewRegistry()
	if OrNop(r) != Recorder(r) {
		t.Error("OrNop(r) lost the recorder")
	}
	// The Nop path must accept every method without effect.
	Nop.Add("x", 1)
	Nop.Set("x", 1)
	Nop.Observe("x", 1)
}

// TestDeclareStandardSnapshot proves a freshly declared registry exports
// the whole schema — per-phase pipeline histograms and protocol
// retransmit counters included — before anything records into it, and
// that the Prometheus rendering is deterministic.
func TestDeclareStandardSnapshot(t *testing.T) {
	r := NewRegistry()
	DeclareStandard(r)
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two Prometheus renders of the same state differ")
	}
	out := a.String()
	for _, want := range []string{
		"vk_protocol_retransmits_total 0",
		`vk_pipeline_phase_seconds_bucket{phase="quantize",le="`,
		`vk_pipeline_phase_bits_bucket{phase="reconcile",le="`,
		`vk_transport_faults_total{kind="dropped"} 0`,
		"# TYPE vk_pipeline_phase_seconds histogram",
		"# TYPE vk_protocol_sent_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus dump missing %q", want)
		}
	}
}

func TestPrometheusHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	r.DeclareHistogram("lat", "latency", []float64{1, 2})
	r.Observe("lat", 0.5)
	r.Observe("lat", 1.5)
	r.Observe("lat", 99)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		`lat_sum 101`,
		`lat_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add("vk_protocol_sent_total", 7)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if s.Counters["vk_protocol_sent_total"] != 7 {
		t.Errorf("counter lost in JSON: %+v", s.Counters)
	}
}

func TestPromFloat(t *testing.T) {
	cases := map[float64]string{
		1:            "1",
		0.25:         "0.25",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		2.5e-3:       "0.0025",
	}
	for in, want := range cases {
		if got := promFloat(in); got != want {
			t.Errorf("promFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	DeclareStandard(r)
	r.Add(ProtocolRetransmits, 3)
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "vk_protocol_retransmits_total 3") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/vars"); !strings.Contains(out, `"vk_protocol_retransmits_total": 3`) {
		t.Errorf("/vars missing counter:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestProfileHelpers(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
	}
	heap := filepath.Join(dir, "heap.out")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}
}

// TestConcurrencySoak hammers every instrument kind from many goroutines
// while snapshots run concurrently. Under -race (scripts/test-race.sh
// runs this package in full) it proves the recorder is safe on the
// protocol and pipeline hot paths; the final counts prove no increment
// is lost.
func TestConcurrencySoak(t *testing.T) {
	r := NewRegistry()
	DeclareStandard(r)
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	// Concurrent reader: snapshots and exports must not race recording.
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
				_ = r.WritePrometheus(io.Discard)
			}
		}
	}()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			hist := Labeled(PipelinePhaseSeconds, "phase", Phases[w%len(Phases)])
			for i := 0; i < perWorker; i++ {
				r.Add(ProtocolSent, 1)
				r.Set("vk_soak_gauge", float64(i))
				r.Observe(hist, float64(i)*1e-6)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	if got := r.Snapshot().Counters[ProtocolSent]; got != workers*perWorker {
		t.Errorf("sent counter = %d, want %d (lost increments)", got, workers*perWorker)
	}
	total := int64(0)
	s := r.Snapshot()
	for _, ph := range Phases {
		total += s.Histograms[Labeled(PipelinePhaseSeconds, "phase", ph)].Count
	}
	if total != workers*perWorker {
		t.Errorf("histogram samples = %d, want %d", total, workers*perWorker)
	}
}

// spin is a tiny unit of real work, so the benchmarks below measure the
// recorder's overhead relative to something, not against an empty loop
// the compiler could fold away.
func spin(x int) int {
	for i := 0; i < 16; i++ {
		x = x*31 + i
	}
	return x
}

var sink int

// BenchmarkBaselineNoInstrumentation is the reference: the workload with
// no recorder calls at all.
func BenchmarkBaselineNoInstrumentation(b *testing.B) {
	x := 1
	for i := 0; i < b.N; i++ {
		x = spin(x)
	}
	sink = x
}

// BenchmarkNopRecorder is the same workload through the default Nop
// path, the number the "< 2% overhead" budget in DESIGN.md §8 refers to.
func BenchmarkNopRecorder(b *testing.B) {
	r := OrNop(nil)
	x := 1
	for i := 0; i < b.N; i++ {
		x = spin(x)
		r.Add(ProtocolSent, 1)
		r.Observe(ProtocolRoundSeconds, 1e-3)
	}
	sink = x
}

// BenchmarkRegistryRecorder is the live path: atomic counter + histogram.
func BenchmarkRegistryRecorder(b *testing.B) {
	r := NewRegistry()
	DeclareStandard(r)
	x := 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = spin(x)
		r.Add(ProtocolSent, 1)
		r.Observe(ProtocolRoundSeconds, 1e-3)
	}
	sink = x
}
