package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	fixtureOnce sync.Once
	fixture     *bench
	fixtureErr  error
)

// tinyBench is a bench small enough for unit tests: a 60-window,
// 6-epoch model, set up once (traced, so the step-by-step rebuild and
// its model check run too) and shared by every test. Two epochs would be
// cheaper, but that model confirms no key in an 8-window session, which
// would leave the key-digest comparisons below with nothing to compare.
func tinyBench(t *testing.T, workload string, units int) *bench {
	t.Helper()
	cfg := config{
		workload: workload, seed: 3, trace: true,
		traceOut:     filepath.Join(t.TempDir(), "trace.json"),
		trainWindows: 60, trainEpochs: 6, setupReps: 1, units: units,
	}
	fixtureOnce.Do(func() {
		fixture, fixtureErr = newBench(cfg, func(*core.System) (func(), error) { return func() {}, nil })
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	if !fixture.setupOK {
		t.Fatal("SetupWith and its step-by-step rebuild trained different models")
	}
	b := *fixture
	b.cfg = cfg
	return &b
}

// runBoth runs a workload's untraced and traced phases on the same
// inputs and checks that decorating every seam changed no key.
func runBoth(t *testing.T, workload string, units int) (*bench, *phase, *phase) {
	t.Helper()
	b := tinyBench(t, workload, units)
	wl := newWorkload(b.cfg)
	plain, err := wl.phase(b, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := wl.phase(b, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []*phase{plain, traced} {
		if p.failed != 0 || p.mismatches != 0 || p.attempted == 0 {
			t.Fatalf("%s phase %d of 2: attempted %d, failed %d, key mismatches %d", workload, i+1, p.attempted, p.failed, p.mismatches)
		}
	}
	if plain.keys == 0 {
		t.Fatalf("%s: no key confirmed in %d sessions; the digest comparison would compare nothing", workload, plain.attempted)
	}
	if len(plain.digests) != plain.attempted || !reflect.DeepEqual(plain.digests, traced.digests) {
		t.Errorf("decorated run's key digests differ from the undecorated run's:\n%v\n%v", plain.digests, traced.digests)
	}
	return b, plain, traced
}

func TestFleetWarmDecoratedMatchesAndAccounts(t *testing.T) {
	b, plain, traced := runBoth(t, "fleet-warm", 20)
	// The layers' spans must cover the sessions they were cut from.
	if got := ratio(traced.tr.accounted, traced.tr.sessionTime); got < 0.9 || got > 1.1 {
		t.Errorf("stage, conn, window and protocol-self time cover %.3f of the session spans, want 1±0.1", got)
	}
	checkReport(t, b, plain, traced)
}

func TestFleetColdReports(t *testing.T) {
	b, plain, traced := runBoth(t, "fleet-cold", 4)
	if len(traced.tr.samples[spanWindows]) == 0 {
		t.Error("fleet-cold traced no window derivation")
	}
	checkReport(t, b, plain, traced)
}

func TestLoraFleetDecoratedMatches(t *testing.T) {
	b, plain, traced := runBoth(t, "lora-fleet", 2)
	if plain.medium.Frames == 0 || plain.medium != traced.medium {
		t.Errorf("MAC counters: untraced %+v, traced %+v", plain.medium, traced.medium)
	}
	if !reflect.DeepEqual(plain.ttk, traced.ttk) {
		t.Errorf("virtual time-to-key: untraced %v, traced %v", plain.ttk, traced.ttk)
	}
	checkReport(t, b, plain, traced)
}

// checkReport checks that an untraced and a traced report each print
// every metric BENCHMARK.json assigns to them, and that the result line
// carries exactly that set.
func checkReport(t *testing.T, b *bench, plain, traced *phase) {
	t.Helper()
	spec := loadSpec(t)
	for _, tc := range []struct {
		traced *phase
		want   []metricSpec
	}{{nil, spec.endToEnd}, {traced, spec.perLayer}} {
		out, res, err := report(b.cfg, b, plain, tc.traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("report judged the run incorrect:\n%s", out)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("result line lacks %s in %s (got %+v)", m.name, m.unit, got)
			}
			if !strings.Contains(out.String(), "\n"+m.name+" ") {
				t.Errorf("report does not print %s", m.name)
			}
		}
	}
}

type benchSpec struct{ endToEnd, perLayer []metricSpec }

// loadSpec reads the repository's BENCHMARK.json and checks that its
// metric lists are the ones this program reports.
func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	conv := func(ms []metric) []metricSpec {
		var out []metricSpec
		for _, m := range ms {
			out = append(out, metricSpec{m.Name, m.Unit})
		}
		return out
	}
	spec := benchSpec{conv(doc.EndToEnd), conv(doc.PerLayer)}
	if !reflect.DeepEqual(spec.endToEnd, endToEnd) || !reflect.DeepEqual(spec.perLayer, perLayer) {
		t.Errorf("BENCHMARK.json metrics differ from the program's:\n%v\n%v\n%v\n%v", spec.endToEnd, endToEnd, spec.perLayer, perLayer)
	}
	return spec
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags(strings.Fields("--workload lora-fleet --seed 7 --seconds 12 --trace 1"))
	if err != nil || cfg.workload != "lora-fleet" || cfg.seed != 7 || cfg.seconds != 12 || !cfg.trace {
		t.Errorf("parseFlags = %+v, %v", cfg, err)
	}
	for _, args := range []string{"", "--workload nope", "--workload fleet-cold --trace 2", "--workload fleet-cold --seconds -1", "--workload fleet-cold extra"} {
		if _, err := parseFlags(strings.Fields(args)); err == nil {
			t.Errorf("parseFlags(%q) accepted bad flags", args)
		}
	}
}
