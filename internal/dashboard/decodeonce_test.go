package dashboard

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// decodeOutcomes scrapes si_source_decode_total by result.
func decodeOutcomes(t *testing.T, p *Platform) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	p.Metrics.WritePrometheus(&buf)
	out := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, r := range []string{"hit", "miss", "bypass"} {
			var n int
			if _, err := fmt.Sscanf(line, `si_source_decode_total{result="`+r+`"} %d`, &n); err == nil {
				out[r] = n
			}
		}
	}
	return out
}

var errJournal = errors.New("journal unavailable")

func decodePlatform(raw string) (*Platform, map[string][]byte) {
	p := cachePlatform(raw)
	p.Metrics = obs.NewRegistry()
	mem := map[string][]byte{"raw.csv": []byte(raw)}
	p.Connectors = connector.NewRegistry(connector.Options{Mem: mem})
	return p, mem
}

func endpointText(t *testing.T, d *Dashboard, name string) string {
	t.Helper()
	tb, ok := d.Endpoint(name)
	if !ok {
		t.Fatalf("no endpoint %s", name)
	}
	return tb.Format(0)
}

func TestDecodeOnceServesUnchangedPayload(t *testing.T) {
	p, _ := decodePlatform("k,v\na,1\nb,2\na,3\n")
	d1 := compileRun(t, p, cacheFlow)
	d2 := compileRun(t, p, cacheFlow)
	if got := decodeOutcomes(t, p); got["miss"] != 1 || got["hit"] != 1 {
		t.Fatalf("decode outcomes = %v, want one miss then one hit", got)
	}
	if a, b := endpointText(t, d1, "agg"), endpointText(t, d2, "agg"); a != b {
		t.Fatalf("hit changed the result:\n%s\nvs\n%s", a, b)
	}
	// The payload key is the source signature, so the node cache still
	// serves every produced node.
	if len(d2.Result().Stats.CacheHits) != 3 {
		t.Fatalf("cache hits = %v, want all three produced nodes", d2.Result().Stats.CacheHits)
	}
}

func TestDecodeOnceMissesOnChangedPayload(t *testing.T) {
	p, mem := decodePlatform("k,v\na,1\nb,2\n")
	compileRun(t, p, cacheFlow)
	mem["raw.csv"] = []byte("k,v\na,10\nb,2\n")
	d := compileRun(t, p, cacheFlow)
	if got := decodeOutcomes(t, p); got["miss"] != 2 || got["hit"] != 0 {
		t.Fatalf("decode outcomes = %v, want two misses", got)
	}
	if !strings.Contains(endpointText(t, d, "agg"), "10") {
		t.Fatalf("changed payload not decoded:\n%s", endpointText(t, d, "agg"))
	}
}

func TestDecodeOnceMissesOnChangedDefinition(t *testing.T) {
	// No header row: columns bind by position, so every edited schema
	// still decodes.
	p, _ := decodePlatform("a,1\nb,2\n")
	compileRun(t, p, cacheFlow)
	edits := []struct{ name, from, to string }{
		{"separator", "format: csv", "format: csv\n  separator: \";\""},
		{"schema", "raw: [k, v]", "raw: [k, v, w]"},
		{"schema path", "raw: [k, v]", "raw: [k, v, x => w]"},
		{"original again (the store keeps only the newest entry)", "", ""},
	}
	for i, e := range edits {
		compileRun(t, p, strings.Replace(cacheFlow, e.from, e.to, 1))
		if got := decodeOutcomes(t, p); got["miss"] != i+2 || got["hit"] != 0 {
			t.Fatalf("%s edit: decode outcomes = %v, want a miss", e.name, got)
		}
	}
}

func TestDecodeOnceMissesOnChangedTimeLayouts(t *testing.T) {
	p, _ := decodePlatform("k,v\n01/03/2024,1\n")
	compileRun(t, p, cacheFlow)
	saved := value.TimeLayouts
	defer func() { value.TimeLayouts = saved }()
	value.TimeLayouts = append(append([]string(nil), saved...), "02/01/2006")
	d := compileRun(t, p, cacheFlow)
	if got := decodeOutcomes(t, p); got["miss"] != 2 {
		t.Fatalf("decode outcomes = %v, want a miss after a layout change", got)
	}
	if !strings.Contains(endpointText(t, d, "agg"), "2024-03-01T00:00:00Z") {
		t.Fatalf("new layout not applied:\n%s", endpointText(t, d, "agg"))
	}
}

// csvVia decodes with the platform's csv format through the registry:
// a user format, which the store must never memoize.
type csvVia struct{ r *connector.Registry }

func (f csvVia) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	def := &flowfile.DataDef{Name: d.Name}
	def.SetProp("format", "csv")
	return f.r.Decode(def, s, payload)
}

func TestUserAndFaultFormatsBypassTheStore(t *testing.T) {
	p, _ := decodePlatform("k,v\na,1\n")
	if err := p.Connectors.RegisterFormat("mine", csvVia{p.Connectors}); err != nil {
		t.Fatal(err)
	}
	faulty := connector.NewFaultFormat(csvVia{p.Connectors}, connector.FaultConfig{FailEvery: 3})
	if err := p.Connectors.RegisterFormat("faulty", faulty); err != nil {
		t.Fatal(err)
	}
	mine := strings.Replace(cacheFlow, "format: csv", "format: mine", 1)
	compileRun(t, p, mine)
	compileRun(t, p, mine)
	if got := decodeOutcomes(t, p); got["bypass"] != 2 || got["hit"] != 0 {
		t.Fatalf("user format outcomes = %v, want two bypasses", got)
	}
	src := strings.Replace(cacheFlow, "format: csv", "format: faulty", 1)
	compileRun(t, p, src)
	compileRun(t, p, src)
	f, err := flowfile.Parse("cached_dash", src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err == nil || !strings.Contains(err.Error(), "fault injection") {
		t.Fatalf("third decode of a FailEvery=3 format: err = %v, want the injected fault", err)
	}
	if faulty.Calls() != 3 {
		t.Fatalf("fault format decoded %d times, want every run (3)", faulty.Calls())
	}
}

func TestServedTableMutationLeavesStoreIntact(t *testing.T) {
	p, _ := decodePlatform("k,v\nb,2\na,1\n")
	d := compileRun(t, p, cacheFlow)
	want := endpointText(t, d, "other")
	stored, _ := p.LastGood.Lookup("cached_dash", "raw")
	snapshot := stored.Format(0)
	for i := 0; i < 2; i++ {
		d = compileRun(t, p, cacheFlow)
		served, ok := d.Result().Table("raw")
		if !ok {
			t.Fatal("source not in the result")
		}
		if err := served.Sort(table.SortKey{Column: "k"}); err != nil {
			t.Fatal(err)
		}
		served.AppendValues(value.NewString("z"), value.NewInt(9))
		served.Rows()[0] = table.Row{value.NewString("q"), value.NewInt(7)}
	}
	if got := decodeOutcomes(t, p); got["hit"] != 2 {
		t.Fatalf("decode outcomes = %v, want two hits", got)
	}
	if got, _ := p.LastGood.Lookup("cached_dash", "raw"); got.Format(0) != snapshot {
		t.Fatalf("stored entry changed by mutating the served table:\n%s\nwant\n%s", got.Format(0), snapshot)
	}
	p.Cache.Invalidate("cached_dash")
	if got := endpointText(t, compileRun(t, p, cacheFlow), "other"); got != want {
		t.Fatalf("rerun on the stored entry:\n%s\nwant\n%s", got, want)
	}
}

func TestKeylessPutOfIdenticalTableKeepsKey(t *testing.T) {
	p, _ := decodePlatform("k,v\na,1\n")
	compileRun(t, p, cacheFlow)
	stored, _ := p.LastGood.Lookup("cached_dash", "raw")
	p.LastGood.Put("cached_dash", "raw", stored.CloneShallow())
	compileRun(t, p, cacheFlow)
	if got := decodeOutcomes(t, p); got["hit"] != 1 {
		t.Fatalf("after an identical Put: outcomes = %v, want a hit", got)
	}
	other := stored.CloneShallow()
	other.AppendValues(value.NewString("b"), value.NewInt(2))
	p.LastGood.Put("cached_dash", "raw", other)
	compileRun(t, p, cacheFlow)
	if got := decodeOutcomes(t, p); got["miss"] != 2 {
		t.Fatalf("after a different Put: outcomes = %v, want a second miss", got)
	}
}

func TestJournalSkipsUnchangedKey(t *testing.T) {
	p, _ := decodePlatform("k,v\na,1\n")
	var appends int
	fail := true
	p.LastGood.SetJournal(func(string, string, SourceEntry) error {
		appends++
		if fail {
			fail = false
			return errJournal
		}
		return nil
	})
	compileRun(t, p, cacheFlow) // miss: append fails
	compileRun(t, p, cacheFlow) // hit: never journaled, so append again
	compileRun(t, p, cacheFlow) // hit: journaled, skip
	compileRun(t, p, cacheFlow)
	if appends != 2 {
		t.Fatalf("journal appends = %d, want 2 (failed first append retried once)", appends)
	}
	var buf bytes.Buffer
	p.Metrics.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "si_lastgood_journal_skipped_total 2") {
		t.Fatalf("metrics:\n%s", buf.String())
	}
}
