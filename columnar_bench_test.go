package shareinsights

// Columnar kernel benchmarks, paired with the row-path task benchmarks
// in bench_test.go (BenchmarkTaskFilter/GroupBy/TopN/MapExpr). Each
// side consumes the same 100k-row benchTable in its native format: the
// row kernels take the table, the columnar kernels take the converted
// Batch. The row->column conversion is benchmarked on its own
// (BenchmarkColumnarConvert), and BenchmarkEnginePipeline measures the
// end-to-end engine difference — the planner converts once per
// vectorized run, so the conversion amortizes across a task chain.
// Measured numbers are snapshotted in BENCH_columnar.json.

import (
	"context"
	"testing"

	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

func benchBatch(b *testing.B, in *table.Table) *colstore.Batch {
	b.Helper()
	cb, ok := colstore.FromTable(in)
	if !ok {
		b.Fatal("bench table is not columnar-eligible")
	}
	return cb
}

func benchKernel(b *testing.B, in *table.Table, k colstore.Kernel) {
	b.Helper()
	cb := benchBatch(b, in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Run(cb); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(in.SizeBytes()))
}

func BenchmarkColumnarConvert(b *testing.B) {
	in := benchTable(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := colstore.FromTable(in); !ok {
			b.Fatal("bench table is not columnar-eligible")
		}
	}
	b.SetBytes(int64(in.SizeBytes()))
}

func BenchmarkColumnarFilter(b *testing.B) {
	in := benchTable(100000)
	pred, err := colstore.CompileVecSrc("v > 500", in.Schema())
	if err != nil {
		b.Fatal(err)
	}
	benchKernel(b, in, &colstore.Filter{Pred: pred})
}

func BenchmarkColumnarGroupBy(b *testing.B) {
	in := benchTable(100000)
	s := in.Schema()
	benchKernel(b, in, &colstore.GroupBy{
		Keys: []int{s.Index("cat")},
		Aggs: []colstore.Agg{
			{Op: colstore.AggSum, Col: s.Index("v")},
			{Op: colstore.AggAvg, Col: s.Index("v")},
		},
		Out:      schema.MustFromNames("cat", "total", "mean"),
		SortKeys: []table.SortKey{{Column: "cat"}},
	})
}

func BenchmarkColumnarTopN(b *testing.B) {
	in := benchTable(100000)
	benchKernel(b, in, &colstore.TopN{
		Key:   in.Schema().Index("v"),
		Desc:  true,
		Limit: 5,
	})
}

func BenchmarkColumnarMapExpr(b *testing.B) {
	in := benchTable(100000)
	ev, err := colstore.CompileVecSrc("v * 2 + k", in.Schema())
	if err != nil {
		b.Fatal(err)
	}
	out, err := in.Schema().Extend("score")
	if err != nil {
		b.Fatal(err)
	}
	benchKernel(b, in, &colstore.MapExpr{Eval: ev, Out: out, Slot: out.Index("score")})
}

// BenchmarkRowTopNGlobal is the row-path twin of BenchmarkColumnarTopN:
// the columnar topn kernel handles only the ungrouped shape, so the
// grouped BenchmarkTaskTopN is not its direct pair.
func BenchmarkRowTopNGlobal(b *testing.B) {
	benchSpec(b, specFromText(b, "  t:\n    type: topn\n    orderby_column: [v DESC]\n    limit: 5\n"), benchTable(100000))
}

// --- End-to-end engine comparison ----------------------------------------

const benchPipelineFlow = `
D:
  src: [k, cat, v]

F:
  D.out: D.src | T.keep | T.score | T.agg | T.top

T:
  keep:
    type: filter_by
    filter_expression: v > 100
  score:
    type: map
    operator: expr
    expression: v * 2 + k
    output: score
  agg:
    type: groupby
    groupby: [cat]
    aggregates:
      - operator: sum
        apply_on: score
        out_field: total
  top:
    type: topn
    orderby_column: [total DESC]
    limit: 10
`

func benchEnginePipeline(b *testing.B, columnar string) {
	f, err := ParseFlowFile("bench", benchPipelineFlow)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dag.Build(f, task.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	src := benchTable(100000)
	e := &batch.Executor{Parallelism: 1, Columnar: columnar}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunWithCacheContext(context.Background(), g, &task.Env{Parallelism: 1}, map[string]*table.Table{"src": src}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(src.SizeBytes()))
}

// BenchmarkEnginePipelineRow and BenchmarkEnginePipelineColumnar run the
// same four-stage flow (filter | map | groupby | topn) through the batch
// engine with the columnar planner off and on; the difference is what a
// real pipeline gains, conversion overhead included.
func BenchmarkEnginePipelineRow(b *testing.B)      { benchEnginePipeline(b, batch.ColumnarOff) }
func BenchmarkEnginePipelineColumnar(b *testing.B) { benchEnginePipeline(b, batch.ColumnarOn) }
