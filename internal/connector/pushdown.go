// Negotiated source pushdown: the cost-based optimizer (internal/dag's
// Optimize) may ask a source to apply a filter predicate and to skip
// decoding columns nothing downstream reads. The request is an offer,
// never an assumption — a protocol or format that cannot honor part of
// it declines that part in its PushdownResult and the pipeline's own
// stages re-establish the semantics (pushed predicates stay in the
// consumer pipeline, so a declined or partially applied pushdown is
// always sound). Negotiation happens in-band with the single fetch and
// the single decode a plain Load performs: declining never refetches,
// so retry accounting (si_source_retries_total) is identical with
// pushdown on and off.
package connector

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// Pushdown is the optimizer's request to a source: filter rows by
// Predicate (an expression over the declared schema) and skip decoding
// SkipColumns (columns no downstream stage reads — they surface as
// nulls). Either part may be empty.
type Pushdown struct {
	// Predicate filters rows at the source. The consumer pipeline
	// re-applies the same filter, so connectors may apply it fully,
	// partially, or not at all.
	Predicate string `json:"predicate,omitempty"`
	// SkipColumns are declared columns whose values are never read
	// downstream; connectors may decode them as nulls.
	SkipColumns []string `json:"skip_columns,omitempty"`
}

// Empty reports whether the request asks for nothing.
func (pd Pushdown) Empty() bool { return pd.Predicate == "" && len(pd.SkipColumns) == 0 }

// PushdownResult reports what a connector actually applied. Declined
// parts are simply absent — a decline is a normal outcome, not an
// error.
type PushdownResult struct {
	// PredicateApplied is true when the source filtered rows by the
	// requested predicate.
	PredicateApplied bool `json:"predicate_applied,omitempty"`
	// SkippedColumns lists the requested columns the source actually
	// skipped (decoded as nulls).
	SkippedColumns []string `json:"skipped_columns,omitempty"`
}

// ProtocolPushdown is the optional protocol capability hook: a
// connector that can ask its source to filter or project server-side
// implements it. FetchPushdown must behave exactly like Fetch for the
// parts of pd it declines, and report what it applied — it must never
// fail because of the pushdown itself.
type ProtocolPushdown interface {
	FetchPushdown(ctx context.Context, d *flowfile.DataDef, pd Pushdown) ([]byte, PushdownResult, error)
}

// FormatPushdown is the optional format capability hook: a format that
// can filter rows or skip column parsing while decoding implements it.
// The same decline contract applies: unsupported parts of pd are
// ignored (and absent from the result), never errors, and the payload
// is decoded exactly once either way.
type FormatPushdown interface {
	DecodePushdown(d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown) (*table.Table, PushdownResult, error)
}

// subtractStrings returns xs minus the elements of ys, preserving
// order.
func subtractStrings(xs, ys []string) []string {
	if len(ys) == 0 {
		return xs
	}
	drop := make(map[string]bool, len(ys))
	for _, y := range ys {
		drop[y] = true
	}
	out := xs[:0:0]
	for _, x := range xs {
		if !drop[x] {
			out = append(out, x)
		}
	}
	return out
}

// LoadPushdown is LoadPushdownContext without context or tracing.
func (r *Registry) LoadPushdown(d *flowfile.DataDef, s *schema.Schema, pd Pushdown) (*table.Table, PushdownResult, error) {
	t, _, res, err := r.LoadPushdownContext(context.Background(), d, s, pd, nil, 0)
	return t, res, err
}

// LoadPushdownContext is LoadContext with a pushdown offer. The offer
// is negotiated in two steps against the exact same fetch/decode
// sequence a plain load performs: the protocol sees the whole request
// first (inside the one retried fetch — capability is probed before
// fetching, so a decline never refetches or re-charges retry metrics),
// then whatever it declined is offered to the format at decode time.
// The merged PushdownResult reports what was applied; callers needing
// exact semantics must keep the predicate in the consumer pipeline,
// where re-applying it is idempotent.
func (r *Registry) LoadPushdownContext(ctx context.Context, d *flowfile.DataDef, s *schema.Schema, pd Pushdown, tr obs.Tracer, parent int) (*table.Table, LoadStats, PushdownResult, error) {
	l, err := r.LoadMemo(ctx, d, s, pd, tr, parent, nil)
	return l.Table, l.Stats, l.Pushdown, err
}

// Memo serves payloads decoded before: given a payload's content key
// (see Loaded.Key) it returns the table and pushdown result that key
// decoded to, if it holds them. The dashboard's last-good source store
// implements it for one (dashboard, source) pair.
type Memo func(key string) (*table.Table, PushdownResult, bool)

// Loaded is the outcome of one LoadMemo or DecodeMemo call.
type Loaded struct {
	// Table is the decoded (or memoized) table.
	Table *table.Table
	// Stats reports the fetch.
	Stats LoadStats
	// Pushdown is what the protocol and format applied of the offer.
	Pushdown PushdownResult
	// Key is the payload's content key: a SHA-256 over the format, the
	// data definition's properties, the schema, the pushdown, the time
	// layouts and the payload bytes. Equal keys decode to identical
	// tables. It is "" when no memo was given, or when the format is
	// not built in: a registered format's decode is not known to be
	// deterministic.
	Key string
	// Hit reports that Table came from the memo: the payload was not
	// decoded.
	Hit bool
}

// LoadMemo is LoadPushdownContext that decodes each payload at most
// once: after the one retried fetch it computes the payload's content
// key and, when memo holds that key, returns the memoized table without
// decoding. A nil memo always decodes and computes no key.
func (r *Registry) LoadMemo(ctx context.Context, d *flowfile.DataDef, s *schema.Schema, pd Pushdown, tr obs.Tracer, parent int, memo Memo) (Loaded, error) {
	var l Loaded
	if s == nil {
		return l, fmt.Errorf("connector: D.%s has no declared schema", d.Name)
	}
	p, pname, err := r.protocolFor(d)
	if err != nil {
		return l, err
	}
	l.Stats.Protocol = pname
	// Probe the protocol capability before any fetch runs: the fetch
	// below happens exactly once through the retry policy whether the
	// pushdown is applied, partially applied, or declined.
	pp, protoPush := p.(ProtocolPushdown)
	protoPush = protoPush && !pd.Empty()
	breaker := r.breakers.For(pname + "\x00" + d.Prop("source"))
	fid := 0
	if tr != nil {
		fid = tr.StartSpan(parent, "fetch "+pname)
	}
	var payload []byte
	var res PushdownResult
	if berr := breaker.Allow(); berr != nil {
		err = fmt.Errorf("source unavailable (%s, %w)", breaker.State(), berr)
	} else {
		policy := r.policyFor(d)
		l.Stats.Attempts, err = policy.Do(ctx, func(actx context.Context) error {
			var ferr error
			if protoPush {
				payload, res, ferr = pp.FetchPushdown(actx, d, pd)
			} else {
				payload, ferr = fetch(actx, p, d)
			}
			return ferr
		})
		if err != nil {
			breaker.Failure()
		} else {
			breaker.Success()
		}
	}
	if retries := l.Stats.Attempts - 1; retries > 0 {
		if m := r.Metrics(); m != nil {
			m.CounterVec("si_source_retries_total",
				"Source fetch retries, by protocol.", "protocol").
				With(pname).Add(int64(retries))
		}
		if tr != nil {
			tr.SpanInt(fid, "retries", int64(retries))
		}
	}
	if tr != nil {
		tr.SpanInt(fid, "bytes", int64(len(payload)))
		if err != nil {
			tr.SpanFlag(fid, "error")
		}
		tr.EndSpan(fid)
	}
	if err != nil {
		return l, fmt.Errorf("connector: D.%s via %s: %w", d.Name, pname, err)
	}
	// Offer the format whatever the protocol declined.
	rem := pd
	if res.PredicateApplied {
		rem.Predicate = ""
	}
	rem.SkipColumns = subtractStrings(rem.SkipColumns, res.SkippedColumns)
	stats := l.Stats
	l, err = r.decodeMemo(d, s, payload, rem, res, tr, parent, memo)
	l.Stats = stats
	return l, err
}

// DecodeMemo is Decode that decodes each payload at most once, with the
// same content key and memo contract as LoadMemo.
func (r *Registry) DecodeMemo(d *flowfile.DataDef, s *schema.Schema, payload []byte, memo Memo) (Loaded, error) {
	if s == nil {
		return Loaded{}, fmt.Errorf("connector: D.%s has no declared schema", d.Name)
	}
	return r.decodeMemo(d, s, payload, Pushdown{}, PushdownResult{}, nil, 0, memo)
}

// decodeMemo decodes a fetched payload, offering the format the part of
// the pushdown the protocol declined (offer) on top of what it already
// applied (applied), or serves the memoized table for the payload's
// content key.
func (r *Registry) decodeMemo(d *flowfile.DataDef, s *schema.Schema, payload []byte, offer Pushdown, applied PushdownResult, tr obs.Tracer, parent int, memo Memo) (Loaded, error) {
	l := Loaded{Pushdown: applied}
	f, fname, err := r.formatFor(d)
	if err != nil {
		return l, err
	}
	fp, formatPush := f.(FormatPushdown)
	formatPush = formatPush && !offer.Empty()
	did := 0
	if tr != nil {
		did = tr.StartSpan(parent, "decode "+fname)
		if applied.PredicateApplied || formatPush {
			tr.SpanFlag(did, "pushdown")
		}
	}
	if memo != nil && builtinFormat(f) {
		l.Key = contentKey(fname, d, s, offer, applied, payload)
		if t, res, ok := memo(l.Key); ok {
			l.Table, l.Pushdown, l.Hit = t, res, true
		}
	}
	if !l.Hit {
		if formatPush {
			var fres PushdownResult
			l.Table, fres, err = fp.DecodePushdown(d, s, payload, offer)
			l.Pushdown.PredicateApplied = l.Pushdown.PredicateApplied || fres.PredicateApplied
			l.Pushdown.SkippedColumns = append(l.Pushdown.SkippedColumns, fres.SkippedColumns...)
		} else {
			l.Table, err = f.Decode(d, s, payload)
		}
	}
	if tr != nil {
		if l.Hit {
			tr.SpanFlag(did, "memo")
		}
		if l.Table != nil {
			tr.SpanInt(did, "rows_out", int64(l.Table.Len()))
		}
		tr.EndSpan(did)
	}
	if err != nil {
		return Loaded{}, fmt.Errorf("connector: D.%s as %s: %w", d.Name, fname, err)
	}
	return l, nil
}

// builtinFormat reports whether f is one of the platform's own formats,
// whose decode is a pure function of the inputs contentKey covers.
// Registered formats and fault-injecting wrappers are not: their
// determinism is not the platform's to assume.
func builtinFormat(f Format) bool {
	switch f.(type) {
	case *csvFormat, *jsonFormat, *xmlFormat, *sbinFormat:
		return true
	}
	return false
}

// contentKey hashes every input a built-in format's decode depends on.
// Each field is length-prefixed so no two field lists share an encoding.
func contentKey(format string, d *flowfile.DataDef, s *schema.Schema, offer Pushdown, applied PushdownResult, payload []byte) string {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	field := func(b []byte) {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
		h.Write(b)
	}
	str := func(v string) { field([]byte(v)) }
	list := func(vs []string) {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(vs)))])
		for _, v := range vs {
			str(v)
		}
	}
	str(format)
	props := make([]string, 0, len(d.Props))
	for k := range d.Props {
		props = append(props, k)
	}
	sort.Strings(props)
	list(props)
	for _, k := range props {
		str(d.Props[k])
	}
	str(s.String())
	str(offer.Predicate)
	list(offer.SkipColumns)
	str(strconv.FormatBool(applied.PredicateApplied))
	list(applied.SkippedColumns)
	list(value.TimeLayouts)
	field(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// compilePushdownPredicate binds a pushed predicate against the
// declared schema for decode-time filtering. It returns the bound
// evaluator plus the set of columns the predicate reads (those must
// keep decoding even when listed in SkipColumns). A predicate that
// fails to parse or bind is declined (nil evaluator) — the consumer
// pipeline still applies it, so declining is always sound.
func compilePushdownPredicate(pred string, s *schema.Schema) (expr.Eval, map[string]bool) {
	if pred == "" {
		return nil, nil
	}
	ev, err := expr.Compile(pred, s)
	if err != nil {
		return nil, nil
	}
	cols, err := expr.ReferencedColumns(pred)
	if err != nil {
		return nil, nil
	}
	need := make(map[string]bool, len(cols))
	for _, c := range cols {
		need[c] = true
	}
	return ev, need
}
