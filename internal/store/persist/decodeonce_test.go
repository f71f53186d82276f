package persist

import (
	"bytes"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/store"
)

const keyedFlow = `
D:
  raw: [k, v]

D.raw:
  source: mem:raw.csv
  format: csv

F:
  +D.agg: D.raw | T.sum

T:
  sum:
    type: groupby
    groupby: [k]
    aggregates:
      - operator: sum
        apply_on: v
        out_field: total
`

// keyedPlatform opens the store on fs and wires a fresh platform to it,
// the way `serve -data-dir` does after a restart.
func keyedPlatform(t *testing.T, fs store.FS) (*Store, *dashboard.Platform) {
	t.Helper()
	st, err := Open(fs, Options{Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	p := dashboard.NewPlatform()
	p.Metrics = obs.NewRegistry()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"raw.csv": []byte("k,v\na,1\nb,2\na,3\n")},
	})
	if err := st.WirePlatform(p); err != nil {
		t.Fatal(err)
	}
	return st, p
}

func runKeyed(t *testing.T, p *dashboard.Platform) string {
	t.Helper()
	f, err := flowfile.Parse("keyed", keyedFlow)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Endpoint("agg")
	return tb.Format(0)
}

func cacheWALRecords(st *Store) int {
	for i, name := range ComponentNames {
		if name == "cache" {
			return st.Status()[i].WALRecords
		}
	}
	return -1
}

func metricLine(p *dashboard.Platform, prefix string) string {
	var buf bytes.Buffer
	p.Metrics.WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

func TestRecoveredKeySkipsDecodeAndJournal(t *testing.T) {
	fs := store.NewMemFS()
	st, p := keyedPlatform(t, fs)
	want := runKeyed(t, p)
	runKeyed(t, p)
	if n := cacheWALRecords(st); n != 1 {
		t.Fatalf("cache WAL records after two runs of one payload = %d, want 1", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, p2 := keyedPlatform(t, fs)
	defer st2.Close()
	if got := runKeyed(t, p2); got != want {
		t.Fatalf("run on the recovered entry:\n%s\nwant\n%s", got, want)
	}
	if got := metricLine(p2, `si_source_decode_total{result="hit"}`); got != `si_source_decode_total{result="hit"} 1` {
		t.Fatalf("restarted run did not hit the recovered key: %q", got)
	}
	if got := metricLine(p2, "si_lastgood_journal_skipped_total"); got != "si_lastgood_journal_skipped_total 1" {
		t.Fatalf("restarted run re-journaled the recovered key: %q", got)
	}
	if n := cacheWALRecords(st2); n != 1 {
		t.Fatalf("cache WAL records after the restarted run = %d, want 1", n)
	}
}

func TestKeylessRecordMissesOnce(t *testing.T) {
	fs := store.NewMemFS()
	st, p := keyedPlatform(t, fs)
	p.LastGood.Put("keyed", "raw", sampleTable(2)) // a record without a key
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, p2 := keyedPlatform(t, fs)
	defer st2.Close()
	runKeyed(t, p2)
	runKeyed(t, p2)
	if got := metricLine(p2, `si_source_decode_total{result="miss"}`); got != `si_source_decode_total{result="miss"} 1` {
		t.Fatalf("keyless record: %q, want exactly one miss", got)
	}
	if n := cacheWALRecords(st2); n != 2 {
		t.Fatalf("cache WAL records = %d, want the keyless record plus one keyed append", n)
	}
}
