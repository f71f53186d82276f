// Package value defines the dynamic value type that flows through every
// ShareInsights data pipeline.
//
// A data object (see internal/table) is a relation whose cells are values
// of type V. V is a small tagged union over the payload kinds the
// platform's connectors can produce — null, bool, int, float, string and
// time — with a total ordering, coercion rules and a stable hash so the
// same value semantics apply in both execution contexts (the batch engine
// and the data cube).
package value

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the dynamic type of a V.
type Kind uint8

// The value kinds, in coercion order: when two values of different
// numeric kinds meet, the comparison is performed in the wider kind.
const (
	Null Kind = iota
	Bool
	Int
	Float
	String
	Time
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// V is a dynamically typed value. The zero value is Null.
//
// The representation packs every kind into one int64 plus one string so
// that rows stay compact: bools are 0/1, floats are IEEE bits, times are
// nanoseconds since the Unix epoch (UTC).
type V struct {
	kind Kind
	num  int64
	str  string
}

// Convenient, frequently used values.
var (
	// VNull is the null value.
	VNull = V{}
	// VTrue and VFalse are the boolean constants.
	VTrue  = V{kind: Bool, num: 1}
	VFalse = V{kind: Bool}
)

// NewBool returns a boolean value.
func NewBool(b bool) V {
	if b {
		return VTrue
	}
	return VFalse
}

// NewInt returns an integer value.
func NewInt(i int64) V { return V{kind: Int, num: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) V { return V{kind: Float, num: int64(math.Float64bits(f))} }

// NewString returns a string value.
func NewString(s string) V { return V{kind: String, str: s} }

// NewTime returns a time value. The location is normalized to UTC; the
// platform treats timestamps as instants.
func NewTime(t time.Time) V { return V{kind: Time, num: t.UTC().UnixNano()} }

// Kind reports the dynamic kind of v.
func (v V) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v V) IsNull() bool { return v.kind == Null }

// Bool returns the boolean payload. It is false unless v is a true Bool.
func (v V) Bool() bool { return v.kind == Bool && v.num != 0 }

// Int returns the value as an int64, coercing floats (truncating),
// bools (0/1), times (unix nanoseconds) and numeric strings. Null and
// non-numeric strings yield 0.
func (v V) Int() int64 {
	switch v.kind {
	case Int, Bool, Time:
		return v.num
	case Float:
		return int64(math.Float64frombits(uint64(v.num)))
	case String:
		if i, err := strconv.ParseInt(strings.TrimSpace(v.str), 10, 64); err == nil {
			return i
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v.str), 64); err == nil {
			return int64(f)
		}
	}
	return 0
}

// Float returns the value as a float64 using the same coercions as Int.
func (v V) Float() float64 {
	switch v.kind {
	case Int, Bool:
		return float64(v.num)
	case Float:
		return math.Float64frombits(uint64(v.num))
	case Time:
		return float64(v.num)
	case String:
		if f, err := strconv.ParseFloat(strings.TrimSpace(v.str), 64); err == nil {
			return f
		}
	}
	return 0
}

// Str returns the string payload for String values and the display form
// for everything else.
func (v V) Str() string {
	if v.kind == String {
		return v.str
	}
	return v.String()
}

// Time returns the time payload, or the zero time for non-Time values.
func (v V) Time() time.Time {
	if v.kind != Time {
		return time.Time{}
	}
	return time.Unix(0, v.num).UTC()
}

// Truthy reports whether the value is "true" in a filter context: true
// bools, non-zero numbers, non-empty strings and non-null times.
func (v V) Truthy() bool {
	switch v.kind {
	case Null:
		return false
	case Bool:
		return v.num != 0
	case Int:
		return v.num != 0
	case Float:
		return v.Float() != 0
	case String:
		return v.str != ""
	case Time:
		return true
	}
	return false
}

// String renders the value for display: the data explorer, CSV/JSON
// serialization of endpoint data and error messages all use this form.
func (v V) String() string {
	switch v.kind {
	case Null:
		return ""
	case Bool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(v.num, 10)
	case Float:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case String:
		return v.str
	case Time:
		return v.Time().Format("2006-01-02T15:04:05Z07:00")
	}
	return ""
}

// NumRaw returns the raw 8-byte payload word without coercion: the
// int64 for Int/Bool/Time values, the IEEE-754 bits for Float values,
// and 0 for Null and String. Unlike Int, it is small enough to inline,
// which is what the columnar converter's per-cell loops need; callers
// must already know the kind.
func (v V) NumRaw() int64 { return v.num }

// StrRaw returns the raw string payload ("" unless the kind is String),
// skipping Str's display-form fallback. See NumRaw.
func (v V) StrRaw() string { return v.str }

// AppendTo appends the display form of the value (exactly String's
// output) to dst and returns the extended slice. Hot paths that build
// composite keys — the columnar group-by kernel — use it to avoid an
// intermediate string allocation per cell.
func (v V) AppendTo(dst []byte) []byte {
	switch v.kind {
	case Null:
		return dst
	case Bool:
		if v.num != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Int:
		return strconv.AppendInt(dst, v.num, 10)
	case Float:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case String:
		return append(dst, v.str...)
	case Time:
		return v.Time().AppendFormat(dst, "2006-01-02T15:04:05Z07:00")
	}
	return dst
}

// numericKind reports whether the kind participates in numeric coercion.
func numericKind(k Kind) bool { return k == Bool || k == Int || k == Float }

// Compare imposes a total order on values: nulls first, then values of
// comparable kinds by payload, then by kind. Mixed int/float/bool compare
// numerically; a numeric string compares numerically against a number so
// that payloads from text formats (CSV) behave intuitively in filters.
func Compare(a, b V) int {
	if a.kind == Null || b.kind == Null {
		switch {
		case a.kind == Null && b.kind == Null:
			return 0
		case a.kind == Null:
			return -1
		default:
			return 1
		}
	}
	if a.kind == b.kind {
		switch a.kind {
		case Bool, Int, Time:
			return cmpInt64(a.num, b.num)
		case Float:
			return cmpFloat(a.Float(), b.Float())
		case String:
			return strings.Compare(a.str, b.str)
		}
	}
	// Mixed numeric kinds compare as floats.
	if numericKind(a.kind) && numericKind(b.kind) {
		return cmpFloat(a.Float(), b.Float())
	}
	// A numeric string meets a number: compare numerically.
	if a.kind == String && numericKind(b.kind) {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.str), 64); err == nil {
			return cmpFloat(f, b.Float())
		}
	}
	if b.kind == String && numericKind(a.kind) {
		if f, err := strconv.ParseFloat(strings.TrimSpace(b.str), 64); err == nil {
			return cmpFloat(a.Float(), f)
		}
	}
	// Otherwise order by kind tag for stability.
	return cmpInt64(int64(a.kind), int64(b.kind))
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether a and b compare equal under Compare.
func Equal(a, b V) bool { return Compare(a, b) == 0 }

// Less reports whether a orders before b under Compare.
func Less(a, b V) bool { return Compare(a, b) < 0 }

// Hash returns a stable 64-bit hash of the value, consistent with Equal
// for same-kind values (group-by keys are built from same-kind columns).
func (v V) Hash() uint64 {
	h := fnv.New64a()
	v.HashInto(h)
	return h.Sum64()
}

// hashWriter is the subset of hash.Hash64 HashInto needs.
type hashWriter interface {
	Write(p []byte) (int, error)
}

// HashInto mixes the value into h, prefixed by a kind tag so that e.g.
// the string "1" and the int 1 hash differently.
func (v V) HashInto(h hashWriter) {
	var buf [9]byte
	buf[0] = byte(v.kind)
	n := v.num
	if v.kind == Float {
		// Normalize -0 and NaN payloads so equal floats hash equally.
		f := v.Float()
		if f == 0 {
			f = 0
		}
		if math.IsNaN(f) {
			f = math.NaN()
		}
		n = int64(math.Float64bits(f))
	}
	for i := 0; i < 8; i++ {
		buf[1+i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	if v.kind == String {
		h.Write([]byte(v.str))
	}
}

// Parse infers the best kind for a text payload: empty → null, then bool,
// int, float, a handful of common timestamp layouts, else string. Format
// codecs for text formats (CSV/TSV) use it to type their cells.
//
// Each attempt is preceded by a syntactic guard that only rules out text
// the attempt must reject, so a plain string cell costs no failed
// strconv or time.Parse call (and none of their error allocations). The
// result is exactly that of trying every parser in turn.
func Parse(s string) V {
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
	if maybeInt(t) {
		if i, err := strconv.ParseInt(t, 10, 64); err == nil {
			return NewInt(i)
		}
	}
	if maybeFloat(t) {
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			return NewFloat(f)
		}
	}
	for _, layout := range TimeLayouts {
		if !maybeLayout(layout, t) {
			continue
		}
		if ts, err := time.Parse(layout, t); err == nil {
			return NewTime(ts)
		}
	}
	return NewString(s)
}

// maybeInt reports whether t has the shape strconv.ParseInt accepts in
// base 10: [+-]?[0-9]+ (range is left to ParseInt).
func maybeInt(t string) bool {
	if t[0] == '+' || t[0] == '-' {
		t = t[1:]
	}
	if t == "" {
		return false
	}
	for i := 0; i < len(t); i++ {
		if t[i] < '0' || t[i] > '9' {
			return false
		}
	}
	return true
}

// maybeFloat reports whether strconv.ParseFloat could accept t: after an
// optional sign the number starts with a digit or '.', or is one of the
// case-insensitive words inf, infinity and nan; any later sign must
// follow an exponent marker (e/E, or p/P in hex floats).
func maybeFloat(t string) bool {
	if t[0] == '+' || t[0] == '-' {
		t = t[1:]
	}
	if t == "" {
		return false
	}
	switch c := t[0]; {
	case c >= '0' && c <= '9', c == '.':
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		return strings.EqualFold(t, "inf") || strings.EqualFold(t, "infinity") || strings.EqualFold(t, "nan")
	default:
		return false
	}
	for i := 1; i < len(t); i++ {
		if c := t[i]; c == '+' || c == '-' {
			switch t[i-1] {
			case 'e', 'E', 'p', 'P':
			default:
				return false
			}
		}
	}
	return true
}

// maybeLayout reports whether time.Parse could accept t under layout.
// The built-in layouts all start with a four-digit year and a dash and
// are told apart by byte 10: 'T' (RFC 3339), ' ' (date and time) or the
// end of the text (date only). Any other layout is always tried.
func maybeLayout(layout, t string) bool {
	switch layout {
	case time.RFC3339Nano, time.RFC3339:
		return dateShaped(t) && len(t) > 10 && t[10] == 'T'
	case "2006-01-02 15:04:05":
		return dateShaped(t) && len(t) > 10 && t[10] == ' '
	case "2006-01-02":
		return dateShaped(t) && len(t) == 10
	}
	return true
}

// dateShaped reports whether t starts with DDDD- and is at least ten
// bytes long.
func dateShaped(t string) bool {
	if len(t) < 10 || t[4] != '-' {
		return false
	}
	for i := 0; i < 4; i++ {
		if t[i] < '0' || t[i] > '9' {
			return false
		}
	}
	return true
}

// TimeLayouts are the timestamp layouts Parse recognizes, most specific
// first. Connectors may append custom layouts before parsing a payload.
var TimeLayouts = []string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02",
}

// FromAny converts a Go value produced by the JSON/XML decoders into a V.
// Unsupported types fall back to their fmt.Sprint form.
func FromAny(x any) V {
	switch t := x.(type) {
	case nil:
		return VNull
	case bool:
		return NewBool(t)
	case int:
		return NewInt(int64(t))
	case int64:
		return NewInt(t)
	case float64:
		// encoding/json decodes all numbers as float64; keep integral
		// values as Int so group-by keys and display stay clean.
		if t == math.Trunc(t) && math.Abs(t) < 1<<53 {
			return NewInt(int64(t))
		}
		return NewFloat(t)
	case string:
		return NewString(t)
	case time.Time:
		return NewTime(t)
	case V:
		return t
	default:
		return NewString(fmt.Sprint(x))
	}
}

// Size estimates the in-memory footprint of the value in bytes. The DAG
// optimizer uses it to cost data transfers between execution contexts.
func (v V) Size() int {
	const header = 24 // kind + num + string header, rounded
	return header + len(v.str)
}
