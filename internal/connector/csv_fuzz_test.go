package connector

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// referenceDecodeCSV is the materialize-then-filter CSV/TSV decoder the
// streaming one must equal: ReadAll every record, parse every cell of a
// row, then evaluate the pushed predicate on the whole row. It is kept
// frozen as the plain definition of the format.
func referenceDecodeCSV(sep rune, d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown) (*table.Table, PushdownResult, error) {
	r := csv.NewReader(bytes.NewReader(payload))
	r.Comma = sep
	if r.Comma == 0 {
		r.Comma = ','
		if sep := d.Prop("separator"); sep != "" {
			r.Comma = []rune(sep)[0]
		}
	}
	r.FieldsPerRecord = -1
	r.TrimLeadingSpace = true
	var res PushdownResult
	records, err := r.ReadAll()
	if err != nil {
		return nil, res, err
	}
	t := table.New(s)
	pred, need := compilePushdownPredicate(pd.Predicate, s)
	res.PredicateApplied = pred != nil
	skip := map[int]bool{}
	for _, c := range pd.SkipColumns {
		if need[c] {
			continue
		}
		if i := s.Index(c); i >= 0 {
			skip[i] = true
			res.SkippedColumns = append(res.SkippedColumns, c)
		}
	}
	if len(records) == 0 {
		return t, res, nil
	}
	binding := make([]int, s.Len())
	for i := range binding {
		binding[i] = i
	}
	start := 0
	if isHeader(records[0], s) {
		start = 1
		pos := map[string]int{}
		for i, field := range records[0] {
			pos[strings.TrimSpace(field)] = i
		}
		for i, col := range s.Columns() {
			if j, ok := pos[col.Source()]; ok {
				binding[i] = j
			} else if j, ok := pos[col.Name]; ok {
				binding[i] = j
			} else {
				return nil, res, fmt.Errorf("header has no column for %q", col.Source())
			}
		}
	}
	for _, rec := range records[start:] {
		row := make(table.Row, s.Len())
		for i, j := range binding {
			if !skip[i] && j < len(rec) {
				row[i] = value.Parse(rec[j])
			}
		}
		if pred != nil && !pred(row).Truthy() {
			continue
		}
		t.Append(row)
	}
	return t, res, nil
}

// fuzzSchema builds a schema from a comma-separated column list where
// "name:path" gives a column a payload path; nil when the list does not
// form a valid schema.
func fuzzSchema(spec string) *schema.Schema {
	var cols []schema.Column
	for _, part := range strings.Split(spec, ",") {
		name, path, _ := strings.Cut(strings.TrimSpace(part), ":")
		if name == "" {
			return nil
		}
		cols = append(cols, schema.Column{Name: name, Path: path})
	}
	s, err := schema.New(cols...)
	if err != nil {
		return nil
	}
	return s
}

// sameTable reports whether two decoded tables hold identical cells
// (same kind and payload bits, not merely Compare-equal) in the same
// order.
func sameTable(a, b *table.Table) bool {
	if !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	for i, ra := range a.Rows() {
		rb := b.Row(i)
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}

type csvFuzzSeed struct {
	payload, cols, pred, skip string
	tsv                       bool
}

var csvFuzzSeeds = []csvFuzzSeed{
	{"region,amount,notes\neast,10,a\nwest,200,b\neast,300,c\n", "region,amount,notes", "amount > 100", "notes", false},
	{"east,10,a\nwest,200,b\n", "region,amount,notes", "region == 'east'", "", false},
	{"amount,region\n5,x\n500,y\n", "region,amount", "amount >= 5 and region != 'y'", "amount", false},
	{"id\tsev\twhen\n1\t3\t2024-03-01\n2\t1\t2024-03-02T10:00:00Z\n", "id,sev,when", "sev >= 3", "id", true},
	{"a,b\n1,\"unterminated\n", "a,b", "a > 0", "", false},
	{"a,b\n1,2,3\n4\n\n5,6\n", "a,b", "b == null", "", false},
	{"x,y\n1,2\n", "a:x,b:y", "a + b > 2", "b", false},
	{"h1,h2\n1,2\n", "a,b", "", "a", false},
	{"", "a", "a > 1", "", false},
	{"a,b\n1,2\n", "a,b", "nonsense ((", "b", false},
	{" a , b \n inf,NaN\n0x1p-2,1_000\n", "a,b", "a > 0", "", false},
	{"a;b\n1;2\n", "a,b", "a < b", "", false},
	{"a,\"b\nc\"\n1,2\n", "a,b", "", "", false},
}

func TestStreamingCSVMatchesReference(t *testing.T) {
	for _, sd := range csvFuzzSeeds {
		checkCSVAgainstReference(t, []byte(sd.payload), sd.cols, sd.pred, sd.skip, sd.tsv)
	}
}

// FuzzDecodeCSV checks the streaming predicate-first csv/tsv decoder
// against the frozen materialize-then-filter reference on arbitrary
// payloads, schemas, predicates and skip lists: the same rows, the same
// pushdown result, and an error exactly when the reference errors.
func FuzzDecodeCSV(f *testing.F) {
	for _, sd := range csvFuzzSeeds {
		f.Add([]byte(sd.payload), sd.cols, sd.pred, sd.skip, sd.tsv)
	}
	f.Fuzz(func(t *testing.T, payload []byte, cols, pred, skip string, tsv bool) {
		checkCSVAgainstReference(t, payload, cols, pred, skip, tsv)
	})
}

func checkCSVAgainstReference(t *testing.T, payload []byte, cols, pred, skip string, tsv bool) {
	t.Helper()
	s := fuzzSchema(cols)
	if s == nil {
		return
	}
	pd := Pushdown{Predicate: pred}
	if skip != "" {
		pd.SkipColumns = strings.Split(skip, ",")
	}
	f := &csvFormat{}
	var sep rune
	if tsv {
		f.sep, sep = '\t', '\t'
	}
	d := &flowfile.DataDef{Name: "t", Props: map[string]string{}}
	got, gres, gerr := f.decode(d, s, payload, pd)
	want, wres, werr := referenceDecodeCSV(sep, d, s, payload, pd)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("error mismatch: streaming %v, reference %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(gres, wres) {
		t.Fatalf("pushdown result: streaming %+v, reference %+v", gres, wres)
	}
	if !sameTable(got, want) {
		t.Fatalf("rows differ:\nstreaming:\n%s\nreference:\n%s", got.Format(20), want.Format(20))
	}
}
