package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	var s samples
	for i := 1; i <= 101; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 51}, {0.9, 91}, {1, 101}} {
		if got := s.quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantileOf([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of {1,2} = %v, want 1.5", got)
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// quantileOf must not reorder its input.
	xs := []float64{3, 1, 2}
	quantileOf(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantileOf sorted its input: %v", xs)
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want string
	}{{5, ""}, {20, "p50"}, {150, "p90"}, {4000, "p99"}, {10000, "p999"}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestMetricGrammar(t *testing.T) {
	good := []struct{ name, unit string }{
		{"op_p50_ms", "ms"}, {"connector.rows_per_s", "1/s"}, {"9lives", "%"}, {"a-b.c_d", "count"},
	}
	for _, g := range good {
		m := metrics{}
		if err := m.set(g.name, 1.5, g.unit); err != nil {
			t.Errorf("set(%q, %q): %v", g.name, g.unit, err)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	bad := []struct{ name, unit string }{
		{"", "ms"}, {"_lead", "ms"}, {".lead", "ms"}, {"has space", "ms"}, {"slash/name", "ms"},
		{long, "ms"}, {"ok", ""}, {"ok", "seventeen-letters"}, {"ok", "m s"},
	}
	for _, b := range bad {
		m := metrics{}
		if err := m.set(b.name, 1, b.unit); err == nil {
			t.Errorf("set(%q, %q) accepted", b.name, b.unit)
		}
	}
	m := metrics{}
	if err := m.set("x", math.NaN(), "ms"); err == nil {
		t.Error("NaN accepted")
	}
	if err := m.set("x", 1, "ms"); err != nil {
		t.Fatal(err)
	}
	if err := m.set("x", 2, "ms"); err == nil {
		t.Error("duplicate name accepted")
	}
}

// TestDeclaredMatchesBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestDeclaredMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", what, i, got[i], want[i])
			}
			m := metrics{}
			if err := m.set(got[i].Name, 1, got[i].Unit); err != nil {
				t.Error(err)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q has no implementation", w.Name)
		}
	}
}

func TestCheckDeclared(t *testing.T) {
	m := metrics{}
	for _, s := range endToEnd {
		m.set(s.Name, 1, s.Unit)
	}
	if err := checkDeclared(m, endToEnd); err != nil {
		t.Fatal(err)
	}
	delete(m, "setup_s")
	if err := checkDeclared(m, endToEnd); err == nil {
		t.Error("missing metric accepted")
	}
	m.set("setup_s", 1, "ms")
	if err := checkDeclared(m, endToEnd); err == nil {
		t.Error("wrong unit accepted")
	}
}

func TestCountCPUList(t *testing.T) {
	for in, want := range map[string]int{"0": 1, "0-1": 2, "0-3,6": 5, "0,2,4-5": 4} {
		if got := countCPUList(in); got != want {
			t.Errorf("countCPUList(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestScrapeMetricsSumsLabelSets(t *testing.T) {
	text := []byte(`# HELP si_store_fsyncs_total x
# TYPE si_store_fsyncs_total counter
si_store_fsyncs_total{component="vcs"} 3
si_store_fsyncs_total{component="cache"} 4
si_admission_queue_wait_seconds_sum 0.25
si_admission_queue_wait_seconds_bucket{le="+Inf"} 2
`)
	got := scrapeMetrics(text)
	if got["si_store_fsyncs_total"] != 7 {
		t.Errorf("fsyncs = %v, want 7", got["si_store_fsyncs_total"])
	}
	if got["si_admission_queue_wait_seconds_sum"] != 0.25 {
		t.Errorf("wait sum = %v", got["si_admission_queue_wait_seconds_sum"])
	}
}
