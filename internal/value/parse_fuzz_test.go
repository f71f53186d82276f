package value

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// referenceParse is the unguarded inference ladder Parse must equal: try
// ParseInt, then ParseFloat, then every layout in TimeLayouts, and fall
// back to a string. It is kept frozen so the guards in Parse are always
// checked against the plain definition.
func referenceParse(s string) V {
	t := strings.TrimSpace(s)
	if t == "" {
		return VNull
	}
	switch t {
	case "true", "True", "TRUE":
		return VTrue
	case "false", "False", "FALSE":
		return VFalse
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return NewFloat(f)
	}
	for _, layout := range TimeLayouts {
		if ts, err := time.Parse(layout, t); err == nil {
			return NewTime(ts)
		}
	}
	return NewString(s)
}

// sameParse reports whether two parse results are indistinguishable:
// same kind, equal under Compare and the same display form. NaN is
// unordered under Compare, so two NaNs match by kind and form alone.
func sameParse(a, b V) bool {
	if a.Kind() != b.Kind() || a.String() != b.String() {
		return false
	}
	if a.Kind() == Float && math.IsNaN(a.Float()) && math.IsNaN(b.Float()) {
		return true
	}
	return Compare(a, b) == 0
}

var parseSeeds = []string{
	"", " ", "0", "-0", "+7", "42", " 42 ", "\t-17\n", "007",
	"9223372036854775807", "9223372036854775808", "-9223372036854775809",
	"1.5", "-.5", ".", "+.", "1e10", "1E-3", "1e+", "1e", "-1.5e+300", "1e400",
	"inf", "-Inf", "+INF", "Infinity", "-infinity", "NaN", "nan", "-nan", "info", "nano",
	"0x1p-2", "0X1P+2", "0x10", "0x1.8p1", "0b101", "0o17", "1_000", "1__0", "_1",
	"1-2", "1+2", "12-05", "--1", "+-1", "e5",
	"true", "TRUE", "tRue", "false", "yes",
	"2024-03-01", "2024-03-01T10:20:30Z", "2024-03-01T10:20:30.123456789+05:30",
	"2024-03-01T10:20:30", "2024-03-01 10:20:30", "2024-03-01  10:20:30",
	"2024-03-01t10:20:30Z", "2024-3-01", "2024-03-1", "2024-02-30", "0000-01-01",
	"+024-03-01", "-024-03-01", "20240-03-01", "2024-03-01 ", "2024-03-01x",
	"2024-03-01T", "2024-03-01 10:20", "2024/03/01", "24-03-01",
	"alice", "north", "n/a", "Inc.", "-", "+", "...",
}

func TestParseMatchesReference(t *testing.T) {
	for _, s := range parseSeeds {
		if got, want := Parse(s), referenceParse(s); !sameParse(got, want) {
			t.Errorf("Parse(%q) = %v %q, reference %v %q", s, got.Kind(), got.String(), want.Kind(), want.String())
		}
	}
}

func TestParseCustomLayoutAlwaysTried(t *testing.T) {
	saved := TimeLayouts
	defer func() { TimeLayouts = saved }()
	TimeLayouts = append(append([]string(nil), saved...), "02/01/2006", "Jan 2 2006")
	for _, s := range []string{"01/03/2024", "Mar 1 2024", "2024-03-01"} {
		got := Parse(s)
		if got.Kind() != Time {
			t.Errorf("Parse(%q) = %v, want time", s, got.Kind())
		}
		if want := referenceParse(s); !sameParse(got, want) {
			t.Errorf("Parse(%q) = %q, reference %q", s, got.String(), want.String())
		}
	}
}

func TestParseStringCellsDoNotAllocate(t *testing.T) {
	cells := []string{"alice", "Open", "n/a", "ticket-42", "north"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range cells {
			Parse(c)
		}
	})
	if allocs != 0 {
		t.Fatalf("Parse of string cells allocated %.1f times per run, want 0", allocs)
	}
}

// FuzzParse checks Parse against the frozen reference ladder cell for
// cell: same kind, same Compare order and same display form.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Parse(s), referenceParse(s); !sameParse(got, want) {
			t.Fatalf("Parse(%q) = %v %q, reference %v %q", s, got.Kind(), got.String(), want.Kind(), want.String())
		}
	})
}
