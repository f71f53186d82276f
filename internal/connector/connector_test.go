package connector

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

func def(t *testing.T, name string, props map[string]string) *flowfile.DataDef {
	t.Helper()
	d := &flowfile.DataDef{Name: name}
	for _, k := range []string{"source", "format", "protocol", "separator", "record_tag", "request_type", "items"} {
		if v, ok := props[k]; ok {
			d.SetProp(k, v)
		}
	}
	for k, v := range props {
		if d.Prop(k) == "" {
			d.SetProp(k, v)
		}
	}
	return d
}

func TestCSVPositionalBinding(t *testing.T) {
	r := NewRegistry(Options{Mem: map[string][]byte{
		"t.csv": []byte("east,10\nwest,20\n"),
	}})
	s := schema.MustFromNames("region", "amount")
	tb, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:t.csv", "format": "csv"}), s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 || tb.Cell(0, "amount").Int() != 10 {
		t.Errorf("csv load wrong:\n%s", tb.Format(0))
	}
}

func TestCSVHeaderBinding(t *testing.T) {
	// Header present with reordered columns: binding switches to by-name.
	r := NewRegistry(Options{Mem: map[string][]byte{
		"t.csv": []byte("amount,region\n10,east\n20,west\n"),
	}})
	s := schema.MustFromNames("region", "amount")
	tb, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:t.csv"}), s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cell(0, "region").Str() != "east" || tb.Cell(0, "amount").Int() != 10 {
		t.Errorf("header binding wrong:\n%s", tb.Format(0))
	}
}

func TestCSVCustomSeparator(t *testing.T) {
	r := NewRegistry(Options{Mem: map[string][]byte{
		"t.csv": []byte("a;1\nb;2\n"),
	}})
	s := schema.MustFromNames("k", "v")
	tb, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:t.csv", "separator": ";"}), s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cell(1, "v").Int() != 2 {
		t.Errorf("separator not honored:\n%s", tb.Format(0))
	}
}

func TestTSV(t *testing.T) {
	r := NewRegistry(Options{Mem: map[string][]byte{
		"t.tsv": []byte("a\t1\nb\t2\n"),
	}})
	s := schema.MustFromNames("k", "v")
	tb, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:t.tsv", "format": "tsv"}), s, nil, 0)
	if err != nil || tb.Len() != 2 {
		t.Fatalf("tsv: %v", err)
	}
}

func TestJSONPathMapping(t *testing.T) {
	payload := `[
	  {"postedTime":"x","body":"hello","user":{"location":"Pune, India"}},
	  {"postedTime":"y","body":"bye","user":{}}
	]`
	r := NewRegistry(Options{Mem: map[string][]byte{"t.json": []byte(payload)}})
	s := schema.MustNew(
		schema.Column{Name: "created_at", Path: "postedTime"},
		schema.Column{Name: "text", Path: "body"},
		schema.Column{Name: "location", Path: "user.location"},
	)
	tb, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:t.json", "format": "json"}), s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cell(0, "location").Str() != "Pune, India" {
		t.Errorf("path mapping wrong:\n%s", tb.Format(0))
	}
	if !tb.Cell(1, "location").IsNull() {
		t.Error("missing path should be null")
	}
}

func TestJSONWrapperObject(t *testing.T) {
	payload := `{"items":[{"q":"how","tags":"pig"}],"has_more":false}`
	r := NewRegistry(Options{Mem: map[string][]byte{"t.json": []byte(payload)}})
	s := schema.MustNew(schema.Column{Name: "question", Path: "q"}, schema.Column{Name: "tags", Path: "tags"})
	tb, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:t.json", "format": "json"}), s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 || tb.Cell(0, "question").Str() != "how" {
		t.Errorf("wrapper decode wrong:\n%s", tb.Format(0))
	}
}

func TestJSONL(t *testing.T) {
	payload := "{\"a\":1}\n{\"a\":2}\n"
	r := NewRegistry(Options{Mem: map[string][]byte{"t.jsonl": []byte(payload)}})
	s := schema.MustFromNames("a")
	tb, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:t.jsonl", "format": "jsonl"}), s, nil, 0)
	if err != nil || tb.Len() != 2 || tb.Cell(1, "a").Int() != 2 {
		t.Fatalf("jsonl: %v\n%v", err, tb)
	}
}

func TestXML(t *testing.T) {
	payload := `<rows>
	  <row><project>pig</project><stats><bugs>3</bugs></stats></row>
	  <row><project>hive</project><stats><bugs>5</bugs></stats></row>
	</rows>`
	r := NewRegistry(Options{Mem: map[string][]byte{"t.xml": []byte(payload)}})
	s := schema.MustNew(
		schema.Column{Name: "project", Path: "project"},
		schema.Column{Name: "bugs", Path: "stats.bugs"},
	)
	tb, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:t.xml", "format": "xml", "record_tag": "row"}), s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 || tb.Cell(1, "bugs").Int() != 5 {
		t.Errorf("xml decode wrong:\n%s", tb.Format(0))
	}
}

func TestFileProtocolConfinement(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ok.csv"), []byte("a\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Options{DataDir: dir})
	s := schema.MustFromNames("a")
	if _, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "ok.csv"}), s, nil, 0); err != nil {
		t.Fatalf("in-dir load: %v", err)
	}
	// Escaping paths are cleaned into the data dir; a genuinely missing
	// file errors rather than reading outside.
	if _, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "../../etc/passwd"}), s, nil, 0); err == nil {
		t.Error("escape should fail")
	}
}

func TestHTTPProtocol(t *testing.T) {
	var gotHeader string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get("X-Access-Key")
		w.Write([]byte(`[{"a":1}]`))
	}))
	defer ts.Close()
	r := NewRegistry(Options{HTTPClient: ts.Client()})
	s := schema.MustFromNames("a")
	d := def(t, "t", map[string]string{"source": ts.URL, "format": "json"})
	d.SetProp("http_headers.X-Access-Key", "XXX")
	tb, _, err := r.LoadContext(context.Background(), d, s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 || gotHeader != "XXX" {
		t.Errorf("http fetch: rows=%d header=%q", tb.Len(), gotHeader)
	}
}

func TestProtocolAndFormatErrors(t *testing.T) {
	r := NewRegistry(Options{})
	s := schema.MustFromNames("a")
	if _, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "gopher://x"}), s, nil, 0); err == nil || !strings.Contains(err.Error(), "gopher") {
		t.Errorf("unknown protocol: %v", err)
	}
	r2 := NewRegistry(Options{Mem: map[string][]byte{"x": []byte("a")}})
	if _, _, err := r2.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:x", "format": "avro"}), s, nil, 0); err == nil || !strings.Contains(err.Error(), "avro") {
		t.Errorf("unknown format: %v", err)
	}
	if _, _, err := r2.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:x"}), nil, nil, 0); err == nil {
		t.Error("missing schema should fail")
	}
}

func TestExtensionRegistration(t *testing.T) {
	r := NewRegistry(Options{})
	if err := r.RegisterProtocol("mem", nil); err == nil {
		t.Error("replacing a platform protocol should fail")
	}
	if err := r.RegisterFormat("csv", nil); err == nil {
		t.Error("replacing a platform format should fail")
	}
	if err := r.RegisterFormat("fixed", &csvFormat{}); err != nil {
		t.Errorf("new format: %v", err)
	}
	found := false
	for _, f := range r.Formats() {
		if f == "fixed" {
			found = true
		}
	}
	if !found {
		t.Error("registered format not listed")
	}
}

func TestSBINRoundTrip(t *testing.T) {
	s := schema.MustFromNames("s", "i", "f", "b", "n")
	src := table.New(s)
	src.AppendValues(value.NewString("héllo"), value.NewInt(-5), value.NewFloat(2.5), value.VTrue, value.VNull)
	src.AppendValues(value.NewString(""), value.NewInt(1<<40), value.NewFloat(-0.1), value.VFalse, value.VNull)
	payload := EncodeSBIN(src)
	r := NewRegistry(Options{Mem: map[string][]byte{"t.sbin": payload}})
	got, _, err := r.LoadContext(context.Background(), def(t, "t", map[string]string{"source": "mem:t.sbin", "format": "sbin"}), s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(src) {
		t.Errorf("sbin round trip:\n%s\nvs\n%s", got.Format(0), src.Format(0))
	}
}

func TestSBINRejectsCorruption(t *testing.T) {
	s := schema.MustFromNames("a")
	src := table.New(s)
	src.AppendValues(value.NewString("x"))
	payload := EncodeSBIN(src)
	for _, corrupt := range [][]byte{
		{},
		[]byte("BOGUS"),
		payload[:len(payload)-1],
	} {
		if _, _, err := DecodeSBIN(corrupt); err == nil {
			t.Errorf("corrupt payload %q decoded", corrupt)
		}
	}
}

func TestSBINRoundTripProperty(t *testing.T) {
	f := func(ss []string, is []int64) bool {
		s := schema.MustFromNames("s", "i")
		src := table.New(s)
		n := len(ss)
		if len(is) < n {
			n = len(is)
		}
		for i := 0; i < n; i++ {
			src.AppendValues(value.NewString(ss[i]), value.NewInt(is[i]))
		}
		names, rows, err := DecodeSBIN(EncodeSBIN(src))
		if err != nil || len(names) != 2 || len(rows) != n {
			return false
		}
		for i, r := range rows {
			if r[0].Str() != ss[i] || r[1].Int() != is[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEncodeCSVAndJSON(t *testing.T) {
	s := schema.MustFromNames("a", "b")
	tb := table.New(s)
	tb.AppendValues(value.NewString("x,y"), value.NewInt(1))
	csvOut, err := EncodeCSV(tb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvOut), "a,b\n\"x,y\",1") {
		t.Errorf("csv = %q", csvOut)
	}
	jsonOut, err := EncodeJSON(tb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jsonOut), `"a":"x,y"`) {
		t.Errorf("json = %s", jsonOut)
	}
}

// TestHTTPConnectionReuse pins the pooling behavior of the default
// client: repeated pulls from the same endpoint ride one warm
// connection instead of dialing per call.
func TestHTTPConnectionReuse(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`[{"a":1}]`))
	}))
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	r := NewRegistry(Options{}) // no HTTPClient: the shared pooled transport
	s := schema.MustFromNames("a")
	d := def(t, "t", map[string]string{"source": ts.URL, "format": "json"})
	for i := 0; i < 5; i++ {
		if _, _, err := r.LoadContext(context.Background(), d, s, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("5 sequential pulls opened %d connections, want 1 (no reuse)", got)
	}
}
