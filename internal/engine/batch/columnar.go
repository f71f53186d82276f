// Columnar execution: the batch engine's vectorized path.
//
// Per node, a planner decision (the `columnar:` data detail, or the
// executor default) selects between the row kernels and the colstore
// kernels. The columnar path converts the pipeline's current table into
// a column batch once, streams it through consecutive vectorized stages
// without materializing rows, and falls back to the row kernels — per
// stage — whenever a spec, schema or value distribution has no typed
// path. Both paths are semantically identical; the differential harness
// in internal/engine/enginetest asserts it.
package batch

import (
	"errors"
	"sync/atomic"
	"time"

	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

// The planner modes of the `columnar:` data detail (flowfile owns the
// set; dag.ResolveColumnar picks a node's effective mode).
const (
	// ColumnarAuto vectorizes eligible stages on inputs of at least
	// columnarAutoThreshold rows, and never splits a fusable row-local
	// run for a partially vectorizable chain.
	ColumnarAuto = flowfile.ColumnarAuto
	// ColumnarOn vectorizes every eligible stage regardless of size.
	ColumnarOn = flowfile.ColumnarOn
	// ColumnarOff disables the columnar path.
	ColumnarOff = flowfile.ColumnarOff
)

// columnarAutoThreshold is the input cardinality below which auto mode
// keeps the row kernels: batch conversion has a fixed cost that tiny
// dashboard tables never amortize. It aliases the dag constant so the
// cost-based planner's path predictions use the same cutoff.
const columnarAutoThreshold = dag.ColumnarAutoThreshold

// pipeState tracks the pipeline's current value as it alternates
// between representations: tbl (row) and batch (columnar), at most one
// of which is nil. Conversion happens lazily in each direction.
type pipeState struct {
	tbl   *table.Table
	batch *colstore.Batch
	// tried marks that FromTable already failed for tbl (a mixed-kind
	// or time column), so the planner stops re-probing it.
	tried bool
}

// Table materializes the row representation.
func (p *pipeState) Table() *table.Table {
	if p.tbl == nil && p.batch != nil {
		p.tbl = p.batch.ToTable()
	}
	return p.tbl
}

// Schema returns the current schema without materializing.
func (p *pipeState) Schema() *schema.Schema {
	if p.batch != nil {
		return p.batch.Schema()
	}
	return p.tbl.Schema()
}

// Len returns the current cardinality without materializing.
func (p *pipeState) Len() int {
	if p.batch != nil {
		return p.batch.Len()
	}
	return p.tbl.Len()
}

// Batch converts to the columnar representation, or reports false when
// the current table is not columnar-eligible.
func (p *pipeState) Batch() (*colstore.Batch, bool) {
	if p.batch != nil {
		return p.batch, true
	}
	if p.tried {
		return nil, false
	}
	b, ok := colstore.FromTable(p.tbl)
	if !ok {
		p.tried = true
		return nil, false
	}
	p.batch = b
	return b, true
}

// setBatch replaces the state with a columnar stage's output.
func (p *pipeState) setBatch(b *colstore.Batch) { p.tbl, p.batch, p.tried = nil, b, false }

// setTable replaces the state with a row stage's output.
func (p *pipeState) setTable(t *table.Table) { p.tbl, p.batch, p.tried = t, nil, false }

// planVec decides whether stage i runs vectorized and binds its kernel.
// Auto mode additionally requires that when specs[i] opens a row-local
// run, the whole contiguous run vectorizes — otherwise fusing the run
// into one sharded row pass beats vectorizing a prefix of it.
func planVec(env *task.Env, specs []task.Spec, i int, mode string, in *schema.Schema, n int) (colstore.Kernel, bool) {
	v, ok := specs[i].(task.Vectorizable)
	if !ok {
		return nil, false
	}
	if mode == ColumnarAuto && n < columnarAutoThreshold {
		return nil, false
	}
	ker, out, ok := v.BindVec(env, task.Input{Schema: in})
	if !ok {
		return nil, false
	}
	if mode == ColumnarAuto {
		if _, isRL := specs[i].(task.RowLocal); isRL {
			s := out
			for j := i + 1; j < len(specs); j++ {
				rl, isRL := specs[j].(task.RowLocal)
				if !isRL {
					break
				}
				vj, ok := rl.(task.Vectorizable)
				if !ok {
					return nil, false
				}
				_, sj, ok := vj.BindVec(env, task.Input{Schema: s})
				if !ok {
					return nil, false
				}
				s = sj
			}
		}
	}
	return ker, true
}

// runVecStage executes one columnar stage with the same panic isolation
// as the row stages.
func runVecStage(stage string, ker colstore.Kernel, b *colstore.Batch) (out *colstore.Batch, err error) {
	defer recoverStage(stage, &err)
	return ker.Run(b)
}

// tryVecStage attempts stage i on the columnar path. handled is false
// when the stage should run on the row path instead (planner declined,
// conversion failed, or the kernel fell back at run time); err is a
// real stage failure.
func (e *Executor) tryVecStage(env *task.Env, specs []task.Spec, i int, mode string, st *pipeState, record func(StageTiming), tr obs.Tracer, parent int, fb *atomic.Int64) (handled bool, err error) {
	ker, ok := planVec(env, specs, i, mode, st.Schema(), st.Len())
	if !ok {
		return false, nil
	}
	b, ok := st.Batch()
	if !ok {
		return false, nil
	}
	spec := specs[i]
	desc := task.Describe(spec)
	nIn := b.Len()
	sid := 0
	if tr != nil {
		sid = tr.StartSpan(parent, "stage "+desc)
		tr.SpanFlag(sid, "columnar")
	}
	start := time.Now()
	out, err := runVecStage(desc, ker, b)
	if err != nil {
		if errors.Is(err, colstore.ErrFallback) {
			// The kernel met data it has no typed path for; the row
			// kernel takes the stage.
			if fb != nil {
				fb.Add(1)
			}
			if tr != nil {
				tr.SpanFlag(sid, "fallback")
				tr.EndSpan(sid)
			}
			return false, nil
		}
		if tr != nil {
			tr.SpanFlag(sid, "error")
			tr.EndSpan(sid)
		}
		return true, err
	}
	d := time.Since(start)
	record(StageTiming{Stage: desc, RowsIn: nIn, Rows: out.Len(), Duration: d, Path: PathColumnar})
	endStageSpan(tr, sid, nIn, out.Len(), d)
	st.setBatch(out)
	return true, nil
}
