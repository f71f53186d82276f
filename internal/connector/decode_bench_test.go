package connector

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"runtime"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/gen"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// decodeBenchRows is the payload size of BenchmarkDecode: the 30k-ticket
// file the rerun workload of the repository benchmark reads.
const decodeBenchRows = 30000

var ticketSchema = schema.MustFromNames("ticket_id", "created", "severity", "category", "summary", "resolved_days")

// ticketPayloads renders one ticket table in every built-in format.
func ticketPayloads(b *testing.B) (map[string][]byte, int) {
	raw := gen.TicketsCSV(1, decodeBenchRows)
	d := &flowfile.DataDef{Name: "tickets", Props: map[string]string{}}
	t, err := (&csvFormat{}).Decode(d, ticketSchema, raw)
	if err != nil {
		b.Fatal(err)
	}
	out := map[string][]byte{"csv": raw, "sbin": EncodeSBIN(t)}
	var tsv bytes.Buffer
	w := csv.NewWriter(&tsv)
	w.Comma = '\t'
	for _, row := range t.Rows() {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = v.String()
		}
		w.Write(rec)
	}
	w.Flush()
	out["tsv"] = tsv.Bytes()
	if out["json"], err = EncodeJSON(t); err != nil {
		b.Fatal(err)
	}
	var lines, x bytes.Buffer
	names := ticketSchema.Names()
	x.WriteString("<tickets>")
	for _, row := range t.Rows() {
		obj := make(map[string]any, len(names))
		x.WriteString("<ticket>")
		for i, n := range names {
			obj[n] = jsonValue(row[i])
			x.WriteString("<" + n + ">")
			xml.EscapeText(&x, []byte(row[i].String()))
			x.WriteString("</" + n + ">")
		}
		x.WriteString("</ticket>")
		line, _ := json.Marshal(obj)
		lines.Write(line)
		lines.WriteByte('\n')
	}
	x.WriteString("</tickets>")
	out["jsonl"], out["xml"] = lines.Bytes(), x.Bytes()
	return out, t.Len()
}

// BenchmarkDecode decodes the 30k-ticket payload in each built-in
// format. csv and tsv decode with the rerun workload's pushed predicate
// (severity >= 3, about half the rows kept); the others have no
// pushdown hook and decode every row. rows/s and allocs/row count the
// payload's rows, kept or not.
func BenchmarkDecode(b *testing.B) {
	payloads, rows := ticketPayloads(b)
	reg := NewRegistry(Options{})
	for _, name := range []string{"csv", "tsv", "json", "jsonl", "xml", "sbin"} {
		b.Run(name, func(b *testing.B) {
			f, _, err := reg.formatFor(&flowfile.DataDef{Name: "tickets", Props: map[string]string{"format": name}})
			if err != nil {
				b.Fatal(err)
			}
			d := &flowfile.DataDef{Name: "tickets", Props: map[string]string{}}
			payload := payloads[name]
			decode := func() (*table.Table, error) { return f.Decode(d, ticketSchema, payload) }
			if fp, ok := f.(FormatPushdown); ok {
				pd := Pushdown{Predicate: "severity >= 3"}
				decode = func() (*table.Table, error) {
					t, _, err := fp.DecodePushdown(d, ticketSchema, payload, pd)
					return t, err
				}
			}
			var m0, m1 runtime.MemStats
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			decoded := float64(rows) * float64(b.N)
			b.ReportMetric(decoded/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/decoded, "allocs/row")
		})
	}
}
