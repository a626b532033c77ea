package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		q       float64
		minN    int
		atMinN  float64 // nearest-rank value of 1..minN
		atMinN1 float64 // ... and of 1..minN+1
	}{
		{0.50, 20, 10, 11},
		{0.75, 40, 30, 31},
		{0.90, 100, 90, 91},
	} {
		if _, err := percentile(seq(tc.minN-1), tc.q); err == nil {
			t.Errorf("p%g of %d samples: want an error (fewer than 10 beyond)", 100*tc.q, tc.minN-1)
		}
		if v, err := percentile(seq(tc.minN), tc.q); err != nil || v != tc.atMinN {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", 100*tc.q, tc.minN, v, err, tc.atMinN)
		}
		if v, err := percentile(seq(tc.minN+1), tc.q); err != nil || v != tc.atMinN1 {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", 100*tc.q, tc.minN+1, v, err, tc.atMinN1)
		}
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, err := percentile(seq(1000), q); err == nil {
			t.Errorf("percentile(q=%v): want an error", q)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestWilsonBand(t *testing.T) {
	// Reference values of the 95% Wilson interval.
	lo, hi := wilson(10, 100, 1.96)
	if math.Abs(lo-0.0552) > 1e-4 || math.Abs(hi-0.1744) > 1e-4 {
		t.Errorf("wilson(10, 100) = [%.4f, %.4f], want [0.0552, 0.1744]", lo, hi)
	}
	if lo, _ := wilson(0, 100, 1.96); lo != 0 {
		t.Errorf("wilson(0, 100) low = %v, want 0", lo)
	}
	ref := mergeRefRate
	for _, tc := range []struct {
		name   string
		errors int
		shots  int
		want   bool
	}{
		{"at the reference", int(ref * 400000), 400000, true},
		{"15% off, inside the slack", int(1.15 * ref * 400000), 400000, true},
		{"small sample, wide interval", 0, 8192, true},
		{"broken decoder", 200000, 400000, false},
		{"half the rate", int(0.5 * ref * 400000), 400000, false},
	} {
		if got := inWilsonBand(tc.errors, tc.shots, ref, mergeBandZ, mergeBandTol); got != tc.want {
			t.Errorf("%s: inWilsonBand(%d, %d) = %v, want %v", tc.name, tc.errors, tc.shots, got, tc.want)
		}
	}
}

func isE2E(name string) bool {
	for _, m := range e2eMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !validMetricName(name) {
			t.Errorf("invalid metric name %q", name)
		}
		if seen[name] {
			t.Errorf("metric %q defined twice", name)
		}
		seen[name] = true
		if !validUnit(unit) {
			t.Errorf("metric %q: invalid unit %q", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %q: better = %q", name, better)
		}
	}
	for _, m := range e2eMetrics {
		check(m.name, m.unit, m.better)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, m := range layerMetrics {
		check(m.name, m.unit, m.better)
		if len(m.moves) == 0 {
			t.Errorf("per-layer metric %q moves nothing", m.name)
		}
		for _, mv := range m.moves {
			metric, wl, ok := strings.Cut(mv, "@")
			if !ok || !isE2E(metric) || !isWorkload(wl) {
				t.Errorf("per-layer metric %q moves %q: want <end-to-end metric>@<workload>", m.name, mv)
			}
		}
	}
	for _, w := range workloads {
		if !validMetricName(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: invalid name or why longer than 200 characters", w.name)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "p50 ms", "x/y", "é", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true, want false", bad)
		}
	}
	for _, good := range []string{"p50_ms", "decoder.decode_ns_per_shot", "fleet-campaign", "9a", strings.Repeat("a", 64)} {
		if !validMetricName(good) {
			t.Errorf("validMetricName(%q) = false, want true", good)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Command) != 2 || doc.Command[0] != "bash" || doc.Command[1] != "e2ebench/run.sh" {
		t.Errorf("command = %q", doc.Command)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "e2ebench" {
		t.Errorf("paths = %q", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(doc.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, d, m)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, d, m)
		}
	}
}

func TestTracerOffSwitch(t *testing.T) {
	var tr *tracer
	tr.start("x", nil).end() // nil is the off switch: no panic, no spans
	if d := tr.durations("x"); d != nil {
		t.Errorf("nil tracer durations = %v", d)
	}
	tr = newTracer("test")
	parent := tr.start("p", nil)
	tr.start("c", parent).end()
	parent.end()
	if n := len(tr.durations("c")); n != 1 {
		t.Errorf("%d closed spans named c, want 1", n)
	}
	if err := tr.writeNDJSON(io.Discard); err != nil {
		t.Error(err)
	}
}

// tinySizes shrinks every workload and probe to a smoke run. The service
// probe keeps 100 requests per class, the fewest its p90 may rest on.
var tinySizes = sizes{
	buildReps: 1, parseReps: 2, setupReps: 1, minReqs: 2, sampleChecks: 100,
	mergeShots: 8192, factoryRuns: 1, factoryPolicies: 2, factoryShots: 256,
	serviceShots: 256, fleetShots: 128,
	probeReps: 1, replayShots: 640, probeMisses: 100, probeHits: 100,
}

func tinyEnv(t *testing.T, traced bool) *env {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	e := &env{ctx: ctx, seed: 7, root: root, scratch: t.TempDir(), ck: &checker{}, sz: tinySizes}
	if traced {
		e.tr = newTracer(t.Name())
	}
	return e
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := tinyEnv(t, false)
			out, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			att, failed, msgs := e.ck.counts()
			if failed != 0 || att == 0 {
				t.Fatalf("%d of %d checks failed: %q", failed, att, msgs)
			}
			if len(out.setup) == 0 || len(out.lat) < tinySizes.minReqs || out.shots <= 0 || out.wall <= 0 {
				t.Fatalf("empty outcome: %d setups, %d requests, %d shots, wall %v", len(out.setup), len(out.lat), out.shots, out.wall)
			}
		})
	}
}

func TestSmokeProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every probe")
	}
	e := tinyEnv(t, true)
	got := map[string]float64{}
	for _, p := range probes {
		m, err := p.run(e)
		if err != nil {
			t.Fatalf("probe %s: %v", p.workload, err)
		}
		for k, v := range m {
			got[k] = v
		}
	}
	if att, failed, msgs := e.ck.counts(); failed != 0 || att == 0 {
		t.Fatalf("%d of %d checks failed: %q", failed, att, msgs)
	}
	for _, m := range layerMetrics {
		if v, ok := got[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s = %v (present %v)", m.name, v, ok)
		}
	}
	if err := e.tr.writeNDJSON(io.Discard); err != nil {
		t.Error(err)
	}
}

func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	if code := run(io.Discard, "no-such-workload", 1, time.Second, false); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetricName reports whether name is a legal metric or workload
// name: a letter or digit, then at most 63 letters, digits, '_', '.'
// or '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// validUnit reports whether unit is a legal metric unit.
func validUnit(unit string) bool { return unitRE.MatchString(unit) }
