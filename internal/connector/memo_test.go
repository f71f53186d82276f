package connector

import (
	"context"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// keyOf loads through LoadMemo with a recording memo that never hits
// and returns the content key the load computed.
func keyOf(t *testing.T, r *Registry, d *flowfile.DataDef, s *schema.Schema, pd Pushdown) string {
	t.Helper()
	var seen string
	l, err := r.LoadMemo(context.Background(), d, s, pd, nil, 0, func(key string) (*table.Table, PushdownResult, bool) {
		seen = key
		return nil, PushdownResult{}, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Key == "" || l.Key != seen || l.Hit {
		t.Fatalf("LoadMemo key %q, memo saw %q, hit %v", l.Key, seen, l.Hit)
	}
	return l.Key
}

func TestContentKeyCoversDecodeInputs(t *testing.T) {
	mem := map[string][]byte{"t.csv": []byte(pushCSV), "u.csv": []byte(pushCSV + "north,5,d\n")}
	r := NewRegistry(Options{Mem: mem})
	base := func() *flowfile.DataDef { return pushDef(t) }
	want := keyOf(t, r, base(), pushSchema(), Pushdown{})
	if again := keyOf(t, r, base(), pushSchema(), Pushdown{}); again != want {
		t.Fatalf("same inputs gave keys %s and %s", want, again)
	}
	withProp := func(k, v string) *flowfile.DataDef {
		d := base()
		d.SetProp(k, v)
		return d
	}
	cases := map[string]func() string{
		"separator": func() string { return keyOf(t, r, withProp("separator", ";"), pushSchema(), Pushdown{}) },
		"payload":   func() string { return keyOf(t, r, withProp("source", "mem:u.csv"), pushSchema(), Pushdown{}) },
		"format": func() string {
			return keyOf(t, r, withProp("format", "tsv"), pushSchema(), Pushdown{})
		},
		"schema": func() string {
			return keyOf(t, r, base(), schema.MustFromNames("region", "amount"), Pushdown{})
		},
		"schema path": func() string {
			s := schema.MustNew(schema.Column{Name: "region"}, schema.Column{Name: "amount", Path: "notes"}, schema.Column{Name: "notes"})
			return keyOf(t, r, base(), s, Pushdown{})
		},
		"predicate": func() string {
			return keyOf(t, r, base(), pushSchema(), Pushdown{Predicate: "amount > 100"})
		},
		"skip columns": func() string {
			return keyOf(t, r, base(), pushSchema(), Pushdown{SkipColumns: []string{"notes"}})
		},
		"time layouts": func() string {
			saved := value.TimeLayouts
			defer func() { value.TimeLayouts = saved }()
			value.TimeLayouts = append(append([]string(nil), saved...), "02/01/2006")
			return keyOf(t, r, base(), pushSchema(), Pushdown{})
		},
	}
	for name, key := range cases {
		if got := key(); got == want {
			t.Errorf("changing the %s kept the content key", name)
		}
	}
}

func TestLoadMemoHitSkipsDecode(t *testing.T) {
	r := pushRegistry(0)
	pd := Pushdown{Predicate: "amount > 100", SkipColumns: []string{"notes"}}
	first, err := r.LoadMemo(context.Background(), pushDef(t), pushSchema(), pd, nil, 0,
		func(string) (*table.Table, PushdownResult, bool) { return nil, PushdownResult{}, false })
	if err != nil {
		t.Fatal(err)
	}
	stored := table.New(pushSchema())
	second, err := r.LoadMemo(context.Background(), pushDef(t), pushSchema(), pd, nil, 0,
		func(key string) (*table.Table, PushdownResult, bool) {
			if key != first.Key {
				t.Fatalf("key changed between identical loads")
			}
			return stored, first.Pushdown, true
		})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Hit || second.Table != stored || second.Stats.Attempts != 1 {
		t.Fatalf("hit = %v, table from memo = %v, attempts = %d", second.Hit, second.Table == stored, second.Stats.Attempts)
	}
	if !second.Pushdown.PredicateApplied || len(second.Pushdown.SkippedColumns) != 1 {
		t.Fatalf("hit lost the stored pushdown result: %+v", second.Pushdown)
	}
}

func TestUnownedFormatsAreNotMemoized(t *testing.T) {
	r := pushRegistry(0)
	if err := r.RegisterFormat("faulty", NewFaultFormat(&csvFormat{}, FaultConfig{})); err != nil {
		t.Fatal(err)
	}
	d := pushDef(t)
	d.SetProp("format", "faulty")
	l, err := r.LoadMemo(context.Background(), d, pushSchema(), Pushdown{}, nil, 0,
		func(string) (*table.Table, PushdownResult, bool) {
			t.Fatal("memo consulted for a registered format")
			return nil, PushdownResult{}, false
		})
	if err != nil {
		t.Fatal(err)
	}
	if l.Key != "" || l.Hit || l.Table.Len() != 3 {
		t.Fatalf("registered format: key %q hit %v rows %d", l.Key, l.Hit, l.Table.Len())
	}
}
