package analyze

import (
	"sort"

	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// Hints is the static-analysis feed for the cost-based optimizer
// (dag.Optimize), used when a flow has no run history yet: flowcheck
// evidence instead of observed evidence.
type Hints struct {
	// Selectivity maps dag.HintKey(output, stage) to a proven
	// selectivity: 0 for a filter whose predicate is always false, 1 for
	// always true. Only provable stages appear — everything else is left
	// to the heuristic.
	Selectivity map[string]float64
	// DeadSourceColumns lists, per source data object, declared columns
	// no downstream stage ever reads — the projection-pushdown feed.
	// Columns are sorted.
	DeadSourceColumns map[string][]string
}

// OptimizerHints runs the lint walk and extracts the optimizer's
// static evidence: constant-predicate filter verdicts as selectivity
// hints, and fetched-but-unused source columns for projection
// pushdown. Broken flows contribute nothing (the optimizer then simply
// has no static evidence for them, which is safe).
func OptimizerHints(f *flowfile.File, opts Options) Hints {
	l := lintRun(f, opts)
	h := Hints{
		Selectivity:       map[string]float64{},
		DeadSourceColumns: map[string][]string{},
	}
	for i, fl := range f.Flows {
		rec := l.flowRecs[i]
		if rec == nil || !rec.ok {
			continue
		}
		for _, st := range rec.stages {
			var sel float64
			switch st.verdict {
			case "always_false":
				sel = 0
			case "always_true":
				sel = 1
			default:
				continue
			}
			desc := task.Describe(st.spec)
			for _, o := range fl.Outputs {
				h.Selectivity[dag.HintKey(o.Name, desc)] = sel
			}
		}
	}
	for _, dc := range l.exportFacts().Dead {
		if dc.Computed {
			// A task computed it — FL064 material, not a fetch to trim.
			continue
		}
		h.DeadSourceColumns[dc.Object] = append(h.DeadSourceColumns[dc.Object], dc.Column)
	}
	for _, cols := range h.DeadSourceColumns {
		sort.Strings(cols)
	}
	return h
}

// PlanOptions assembles dag.PlanOptions from these hints plus an
// optional observed-statistics feed; stats win over hints inside the
// planner's evidence chain (history → facts → heuristic).
func (h Hints) PlanOptions(stats dag.StatsFn) dag.PlanOptions {
	return dag.PlanOptions{
		Stats:             stats,
		Hints:             h.Selectivity,
		DeadSourceColumns: h.DeadSourceColumns,
	}
}
