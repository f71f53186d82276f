package flowfile

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Problem is one validation finding with the source line it refers to —
// the line of the offending flow, task, widget or layout row, so the
// editor and the lint report render validation and analysis findings
// uniformly.
type Problem struct {
	// Line is the 1-based source line (0 when unknown).
	Line int
	// Message describes the problem in flow-file vocabulary.
	Message string
	// Code classifies problems that downstream reporters (flowlint)
	// re-report under a dedicated rule, so they can suppress the generic
	// copy without matching message text. "" for everything else.
	Code string
}

// Problem codes. A code marks a class of structural problem that a
// specific flowlint rule re-reports with hints (FL042, FL043).
const (
	// ProblemResilience marks bad on_error/timeout/retries details.
	ProblemResilience = "resilience"
	// ProblemColumnar marks a bad columnar: value.
	ProblemColumnar = "columnar"
	// ProblemCache marks bad cache:/max_rows admission details.
	ProblemCache = "cache"
)

// String renders the problem with its line prefix.
func (p Problem) String() string {
	if p.Line > 0 {
		return fmt.Sprintf("line %d: %s", p.Line, p.Message)
	}
	return p.Message
}

// ValidationError collects all problems found in a flow file so users see
// every issue at once — the paper's §5.2 learnings call out error
// reporting as the platform's weakest point, so validation is thorough
// and names the offending section entries.
type ValidationError struct {
	// Problems are the individual findings.
	Problems []Problem
}

// Error implements error.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Problems))
	for i, p := range e.Problems {
		msgs[i] = p.String()
	}
	return fmt.Sprintf("flow file invalid: %s", strings.Join(msgs, "; "))
}

func (e *ValidationError) add(line int, format string, args ...any) {
	e.Problems = append(e.Problems, Problem{Line: line, Message: fmt.Sprintf(format, args...)})
}

// addCoded records a problem carrying a classification code.
func (e *ValidationError) addCoded(code string, line int, format string, args ...any) {
	e.Problems = append(e.Problems, Problem{Line: line, Message: fmt.Sprintf(format, args...), Code: code})
}

// label names a flow by its first output for messages, guarding against
// programmatically built flows with no outputs (the parser always
// produces at least one, but Validate must not panic on any File).
func (fl *Flow) label() string {
	if len(fl.Outputs) == 0 {
		return "(no outputs)"
	}
	return fl.Outputs[0].String()
}

// Validate cross-checks the sections of the file:
//
//   - every flow has at least one output and a pipeline,
//   - every task referenced from a flow or widget source exists in T,
//   - every data object referenced from a flow or widget source is
//     declared, produced by a flow, or plausibly a shared (published)
//     object when allowShared is true,
//   - filter tasks that name a filter_source widget reference a widget
//     that exists,
//   - every layout cell references a widget,
//   - no data object is produced by two flows,
//   - resilience details are well-formed: on_error is fail, stale or
//     empty; timeout parses as a duration; retries is a non-negative
//     integer (see docs/RESILIENCE.md).
//
// Dangling references to shared objects can only be resolved against the
// platform catalog at compile time, so Validate with allowShared=true is
// the editor-save check and the dashboard compiler re-checks strictly.
func (f *File) Validate(allowShared bool) error {
	e := &ValidationError{}
	produced := map[string]int{}
	for _, fl := range f.Flows {
		if len(fl.Outputs) == 0 {
			e.add(fl.Line, "flow has no output data objects")
		}
		if fl.Pipeline == nil {
			e.add(fl.Line, "flow for %s has no pipeline", fl.label())
			continue
		}
		for _, out := range fl.Outputs {
			produced[out.Name]++
			if produced[out.Name] > 1 {
				e.add(fl.Line, "data object D.%s is produced by more than one flow", out.Name)
			}
		}
		for _, t := range fl.Pipeline.Tasks {
			if _, ok := f.Tasks[t.Name]; !ok {
				e.add(fl.Line, "flow for %s references undefined task T.%s", fl.label(), t.Name)
			}
		}
	}
	// Resilience details steer run-time degradation (docs/RESILIENCE.md);
	// a typo here would otherwise surface only mid-outage, exactly when
	// the dashboard owner can least afford to debug it.
	for _, name := range f.DataOrder {
		d := f.Data[name]
		if m := d.Prop("on_error"); m != "" && m != "fail" && m != "stale" && m != "empty" {
			e.addCoded(ProblemResilience, d.Line, "data object D.%s: on_error must be fail, stale or empty (got %q)", name, m)
		}
		if v := d.Prop("timeout"); v != "" {
			if dur, err := time.ParseDuration(v); err != nil {
				e.addCoded(ProblemResilience, d.Line, "data object D.%s: timeout %q is not a duration (try 30s or 2m)", name, v)
			} else if dur <= 0 {
				e.addCoded(ProblemResilience, d.Line, "data object D.%s: timeout must be positive (got %q)", name, v)
			}
		}
		if v := d.Prop("retries"); v != "" {
			if n, err := strconv.Atoi(v); err != nil || n < 0 {
				e.addCoded(ProblemResilience, d.Line, "data object D.%s: retries must be a non-negative integer (got %q)", name, v)
			}
		}
		// The columnar detail steers the batch engine's vectorized
		// execution planner (docs/ENGINE.md).
		if v := d.Prop("columnar"); v != "" && !slices.Contains(ColumnarModes, v) {
			e.addCoded(ProblemColumnar, d.Line, "data object D.%s: columnar must be auto, on or off (got %q)", name, v)
		}
		// Admission details steer the serving layer's result cache and
		// per-run budgets (docs/SERVING.md). A typo silently disables the
		// protection — an always-cold cache or an unbounded run.
		if v := d.Prop("cache"); v != "" && v != "on" && v != "off" {
			e.addCoded(ProblemCache, d.Line, "data object D.%s: cache must be on or off (got %q)", name, v)
		}
		if v := d.Prop("max_rows"); v != "" {
			if n, err := strconv.Atoi(v); err != nil || n <= 0 {
				e.addCoded(ProblemCache, d.Line, "data object D.%s: max_rows must be a positive integer (got %q)", name, v)
			}
		}
	}
	// A data object is locally resolvable if it has source details, a
	// declared schema (inline/static data) or is produced by a flow.
	resolvable := func(name string) bool {
		d, ok := f.Data[name]
		if ok && (d.Schema != nil || d.Prop("source") != "" || d.Prop("protocol") != "" || produced[name] > 0) {
			// A declared schema is enough: the object binds to an
			// uploaded data file or connector at compile time (§4.3.2).
			return true
		}
		return allowShared
	}
	for _, fl := range f.Flows {
		if fl.Pipeline == nil {
			continue
		}
		for _, in := range fl.Pipeline.Inputs {
			if !resolvable(in.Name) {
				e.add(fl.Line, "flow for %s reads D.%s which has no source, producing flow, or shared publication", fl.label(), in.Name)
			}
		}
	}
	for _, name := range f.WidgetOrder {
		w := f.Widgets[name]
		if w.Source != nil {
			for _, in := range w.Source.Inputs {
				if !resolvable(in.Name) {
					e.add(w.Line, "widget W.%s reads D.%s which is not resolvable", name, in.Name)
				}
			}
			for _, t := range w.Source.Tasks {
				if _, ok := f.Tasks[t.Name]; !ok {
					e.add(w.Line, "widget W.%s references undefined task T.%s", name, t.Name)
				}
			}
		}
	}
	// Interaction tasks may name widgets as filter sources (§3.5.1).
	for _, name := range f.TaskOrder {
		t := f.Tasks[name]
		if src := t.Config.Str("filter_source"); src != "" {
			ref, err := ParseRef(src)
			if err != nil {
				e.add(t.Line, "task T.%s: bad filter_source %q", name, src)
				continue
			}
			if ref.Section == "W" {
				if _, ok := f.Widgets[ref.Name]; !ok {
					e.add(t.Line, "task T.%s filter_source references undefined widget W.%s", name, ref.Name)
				}
			}
		}
	}
	if f.Layout != nil {
		for i, row := range f.Layout.Rows {
			span := 0
			for _, cell := range row.Cells {
				span += cell.Span
				if _, ok := f.Widgets[cell.Widget]; !ok {
					e.add(f.Layout.Line, "layout row %d references undefined widget W.%s", i+1, cell.Widget)
				}
			}
			if span > 12 {
				e.add(f.Layout.Line, "layout row %d spans %d columns (max 12)", i+1, span)
			}
		}
	}
	if len(e.Problems) > 0 {
		return e
	}
	return nil
}

// SharedInputs lists the data objects the file reads but neither sources
// nor produces locally — these must come from the platform's shared
// catalog (§3.7.2 data-consumption mode).
func (f *File) SharedInputs() []string {
	produced := map[string]bool{}
	for _, fl := range f.Flows {
		for _, out := range fl.Outputs {
			produced[out.Name] = true
		}
	}
	need := map[string]bool{}
	collect := func(p *Pipeline) {
		if p == nil {
			return
		}
		for _, in := range p.Inputs {
			d := f.Data[in.Name]
			local := produced[in.Name] || (d != nil && (d.Prop("source") != "" || d.Prop("protocol") != ""))
			if !local {
				need[in.Name] = true
			}
		}
	}
	for _, fl := range f.Flows {
		collect(fl.Pipeline)
	}
	for _, name := range f.WidgetOrder {
		if w := f.Widgets[name]; w.Source != nil {
			collect(w.Source)
		}
	}
	out := make([]string, 0, len(need))
	for _, name := range f.DataOrder {
		if need[name] {
			out = append(out, name)
		}
	}
	for name := range need {
		if _, declared := f.Data[name]; !declared {
			out = append(out, name)
		}
	}
	return out
}
