package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// HistogramSnapshot is one histogram's state at snapshot time. Counts
// are per-bucket (not cumulative); the last entry is the +Inf bucket.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution from the bucket counts, interpolating linearly inside
// the bucket that contains the target rank — the same estimate
// Prometheus's histogram_quantile computes. Samples that landed in the
// +Inf bucket are reported as the largest finite bound (a conservative
// floor, as Prometheus does). Returns 0 when the histogram is empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Counts) == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.Bounds[i-1]
			}
			if i >= len(h.Bounds) { // +Inf bucket: no finite width
				return h.Bounds[len(h.Bounds)-1]
			}
			upper := h.Bounds[i]
			return lower + (upper-lower)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of every instrument, safe to
// serialize while recording continues.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]float64           `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		UptimeSeconds: r.Uptime().Seconds(),
		Counters:      make(map[string]int64),
		Gauges:        make(map[string]float64),
		Histograms:    make(map[string]HistogramSnapshot),
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	r.mu.RUnlock()
	return s
}

// WriteJSON renders the snapshot as indented JSON, expvar-style: one
// self-describing document with sorted keys (encoding/json sorts map
// keys), suitable for scraping or diffing.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. Labeled names ("family{k=\"v\"}") become label sets on the
// family; histograms expand into cumulative _bucket/_sum/_count series.
// Output is sorted by name, so two snapshots of the same state are
// byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	typed := make(map[string]string) // family → TYPE already emitted

	r.mu.RLock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	header := func(name, kind string) error {
		fam := Family(name)
		if typed[fam] != "" {
			return nil
		}
		typed[fam] = kind
		if h := help[fam]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, h); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, kind)
		return err
	}

	for _, name := range sortedKeys(s.Counters) {
		if err := header(name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promName(name, ""), s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := header(name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", promName(name, ""), promFloat(s.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		if err := header(name, "histogram"); err != nil {
			return err
		}
		h := s.Histograms[name]
		fam, lbl := Family(name), labels(name)
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			le := promFloat(bound)
			if _, err := fmt.Fprintf(w, "%s %d\n", promBucket(fam, lbl, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promBucket(fam, lbl, "+Inf"), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", promName(fam+"_sum", lbl), promFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promName(fam+"_count", lbl), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName renders a series name with an optional pre-baked label block.
func promName(name, extraLabels string) string {
	fam, lbl := Family(name), labels(name)
	switch {
	case lbl == "" && extraLabels == "":
		return fam
	case lbl == "":
		return fam + "{" + extraLabels + "}"
	case extraLabels == "":
		return fam + "{" + lbl + "}"
	default:
		return fam + "{" + lbl + "," + extraLabels + "}"
	}
}

// promBucket renders one cumulative histogram bucket series name.
func promBucket(fam, lbl, le string) string {
	if lbl == "" {
		return fam + `_bucket{le="` + le + `"}`
	}
	return fam + `_bucket{` + lbl + `,le="` + le + `"}`
}

// promFloat formats a float the way Prometheus expects.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
