package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile
// is only supported by a run when at least this many samples lie beyond
// it, so p90 needs 100 samples and p99 needs 1000.
const minBeyond = 10

// samples is a set of durations taken in one run.
type samples []time.Duration

// quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between closest ranks, in milliseconds; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	xs := make([]float64, len(s))
	for i, d := range s {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return quantileOf(xs, q)
}

// quantileOf is quantile over plain values.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median is quantileOf(xs, 0.5).
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// supports reports whether n samples support the q-quantile under the
// sample-count rule: at least minBeyond samples lie strictly beyond it.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// tailQuantile names the highest of p50, p90, p99 and p999 that n
// samples support, or "" when even the median is unsupported.
func tailQuantile(n int) string {
	best := ""
	for _, c := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999}} {
		if supports(n, c.q) {
			best = c.name
		}
	}
	return best
}

// nameRE is the metric and workload name grammar: a letter or digit,
// then at most 63 more letters, digits, '_', '.' or '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the unit grammar: 1 to 16 letters, digits, '_', '/', '%',
// '.' or '-'.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported numbers by name.
type metrics map[string]metric

// set records a metric, rejecting names and units outside the grammar
// and values JSON cannot carry.
func (m metrics) set(name string, value float64, unit string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q is outside the grammar", name)
	}
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q is outside the grammar", name, unit)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("metric %s: value %v is not a finite number", name, value)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("metric %s reported twice", name)
	}
	m[name] = metric{Value: value, Unit: unit}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
