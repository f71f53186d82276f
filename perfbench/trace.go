package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/gen"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/server"
	"shareinsights/internal/store"
	"shareinsights/internal/store/persist"
	"shareinsights/internal/table"
)

// The traced run. It performs each workload's op in-process on a
// platform wired the way `serve -data-dir` wires it, twice per
// repetition: once whole through Dashboard.RunContext (dashboard.run_ms),
// and once decomposed into the public calls the run makes, in the order
// it makes them, each timed from here. Nothing inside the program is
// instrumented. trace.unattributed_ms is the whole run minus the
// decomposed parts; NOTES.md says how to read it.

const (
	traceReps   = 5 // repetitions of the op; each metric is their median
	interactOps = 20
)

// traceEnv is an in-process platform with a durable store, plus a
// separate durable recorder for timing history.Record without feeding
// the platform's planner evidence twice per op.
type traceEnv struct {
	p   *dashboard.Platform
	st  *persist.Store
	rec *history.Recorder
	dir string
}

func newTraceEnv(dir string) (*traceEnv, error) {
	for _, d := range []string{"data", "state", "history"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return nil, err
		}
	}
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{DataDir: filepath.Join(dir, "data")})
	p.Metrics = obs.NewRegistry()
	st, err := persist.Open(store.NewOSFS(filepath.Join(dir, "state")), persist.Options{Metrics: p.Metrics})
	if err != nil {
		return nil, err
	}
	// server.New wires cache, history and journals exactly as serve does.
	server.New(p, server.WithStore(st))
	rec, err := history.Open(store.NewOSFS(filepath.Join(dir, "history")), history.Options{})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &traceEnv{p: p, st: st, rec: rec, dir: dir}, nil
}

func (e *traceEnv) close() error {
	err := e.rec.Close()
	if serr := e.st.Close(); err == nil {
		err = serr
	}
	return err
}

// rep holds one repetition's values, summed over the op's dashboards.
type rep map[string]float64

// runtimeSample reads the runtime counters taken around an op.
type runtimeSample struct{ gcCPU, totalCPU, allocs float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	val := func(x rtmetrics.Sample) float64 {
		switch x.Value.Kind() {
		case rtmetrics.KindFloat64:
			return x.Value.Float64()
		case rtmetrics.KindUint64:
			return float64(x.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0]), val(s[1]), val(s[2])}
}

func (e *traceEnv) storeCounters() map[string]float64 {
	var b bytes.Buffer
	e.p.Metrics.WritePrometheus(&b)
	return scrapeMetrics(b.Bytes())
}

// realRun is the op as serve performs it: parse, compile, RunContext.
// It records the whole-run timings and the durable-store and runtime
// deltas around it into r.
func (e *traceEnv) realRun(r rep, name, src string, res map[string][]byte) (*dashboard.Dashboard, error) {
	before := e.storeCounters()
	rt0 := readRuntime()
	t0 := time.Now()
	f, err := flowfile.Parse(name, src)
	if err != nil {
		return nil, err
	}
	d, err := e.p.Compile(f, res)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := d.RunContext(context.Background()); err != nil {
		return nil, err
	}
	t2 := time.Now()
	rt1 := readRuntime()
	after := e.storeCounters()
	r["dashboard.run_ms"] += ms(t2.Sub(t1))
	r["trace.total_ms"] += ms(t2.Sub(t0))
	r["store.fsyncs_per_op"] += after["si_store_fsyncs_total"] - before["si_store_fsyncs_total"]
	if wal := after["si_store_wal_bytes"] - before["si_store_wal_bytes"]; wal >= 0 {
		r["store.wal_bytes_per_op"] += wal
	} else {
		// A compaction reset the segment; the growth is unknown.
		r["wal_compacted"] = 1
	}
	r["gc_cpu"] += rt1.gcCPU - rt0.gcCPU
	r["total_cpu"] += rt1.totalCPU - rt0.totalCPU
	r["runtime.alloc_bytes_per_op"] += rt1.allocs - rt0.allocs
	return d, nil
}

// decompose performs the run of prev's flow again as its public calls,
// timing each. prev is the whole run just made on the same inputs: the
// executor is handed the node-cache hits prev got, from prev's result.
func (e *traceEnv) decompose(r rep, name, src string, res map[string][]byte, prev *dashboard.Dashboard) error {
	ctx := context.Background()
	t := time.Now()
	f, err := flowfile.Parse(name, src)
	if err != nil {
		return err
	}
	r["flowfile.parse_ms"] += ms(time.Since(t))
	t = time.Now()
	d, err := e.p.Compile(f, res)
	if err != nil {
		return err
	}
	r["dashboard.compile_ms"] += ms(time.Since(t))

	covered := time.Duration(0)
	t = time.Now()
	plan := d.Explain()
	el := time.Since(t)
	covered += el
	r["dag.plan_ms"] += ms(el)

	sources := map[string]*table.Table{}
	for _, src := range d.Graph.Sources() {
		n := d.Graph.Nodes[src]
		var tb *table.Table
		rt0 := readRuntime()
		t = time.Now()
		switch payloadName, isData := strings.CutPrefix(n.Def.Prop("source"), "data:"); {
		case n.Shared:
			obj, ok := e.p.Catalog.Resolve(src)
			if !ok {
				return fmt.Errorf("shared object %s missing", src)
			}
			tb = obj.Data
		case isData:
			payload, ok := d.Env().Resource(payloadName)
			if !ok {
				return fmt.Errorf("no uploaded %s", payloadName)
			}
			if tb, err = e.p.Connectors.Decode(n.Def, n.Schema, payload); err != nil {
				return err
			}
			el = time.Since(t)
			r["connector.decode_ms"] += ms(el)
			r["connector.attempts"]++
		default:
			var stats connector.LoadStats
			if np := plan.Node(src); np != nil && np.Pushdown != nil {
				pd := connector.Pushdown{Predicate: np.Pushdown.Predicate, SkipColumns: np.Pushdown.SkipColumns}
				tb, stats, _, err = e.p.Connectors.LoadPushdownContext(ctx, n.Def, n.Schema, pd, nil, 0)
			} else {
				tb, stats, err = e.p.Connectors.LoadContext(ctx, n.Def, n.Schema, nil, 0)
			}
			if err != nil {
				return err
			}
			el = time.Since(t)
			r["connector.load_ms"] += ms(el)
			r["connector.attempts"] += float64(stats.Attempts)
		}
		el = time.Since(t)
		covered += el
		if !n.Shared {
			r["load_rows"] += float64(tb.Len())
			r["load_s"] += el.Seconds()
			r["load_alloc"] += readRuntime().allocs - rt0.allocs
			t = time.Now()
			e.p.LastGood.Put(d.Name, src, tb.CloneShallow())
			el = time.Since(t)
			covered += el
			r["store.lastgood_put_ms"] += ms(el)
		}
		sources[src] = tb
	}

	t = time.Now()
	d.Graph.Signatures(func(name string) string {
		if tb, ok := sources[name]; ok {
			return tb.Fingerprint()
		}
		return ""
	})
	el = time.Since(t)
	covered += el
	r["table.fingerprint_ms"] += ms(el)

	cached := map[string]*table.Table{}
	for _, hit := range prev.Result().Stats.CacheHits {
		if tb, ok := prev.Result().Table(hit); ok {
			cached[hit] = tb
		}
	}
	exec := &batch.Executor{Parallelism: e.p.Parallelism, Optimize: e.p.Optimize, Plan: plan, Columnar: e.p.Columnar}
	t = time.Now()
	result, err := exec.RunWithCacheContext(ctx, d.Graph, d.Env(), sources, cached)
	if err != nil {
		return err
	}
	el = time.Since(t)
	covered += el
	r["batch.run_ms"] += ms(el)
	st := &result.Stats
	for _, tm := range st.Timings {
		switch {
		case strings.HasPrefix(tm.Stage, "groupby"):
			r["batch.groupby_ms"] += ms(tm.Duration)
		case strings.HasPrefix(tm.Stage, "topn"), strings.HasPrefix(tm.Stage, "join"):
			r["batch.topn_join_ms"] += ms(tm.Duration)
		default:
			r["batch.rowlocal_ms"] += ms(tm.Duration)
		}
		r["batch.queue_wait_ms"] += ms(tm.QueueWait)
	}
	r["cache_hits"] += float64(len(st.CacheHits))
	for _, name := range d.Graph.Order {
		if !d.Graph.Nodes[name].IsSource() {
			r["cache_lookups"]++
		}
	}
	r["batch.columnar_fallbacks"] += float64(st.ColumnarFallbacks)
	if plan != nil {
		for _, np := range plan.Nodes {
			if np.Pushdown != nil && np.Pushdown.Predicate != "" {
				r["dag.pushdowns"]++
			}
		}
	}

	for _, name := range d.Graph.Published() {
		tb, ok := result.Table(name)
		if !ok {
			return fmt.Errorf("published %s not materialized", name)
		}
		t = time.Now()
		if _, err := e.p.Catalog.Publish(d.Name, d.Graph.Nodes[name].Def.Publish, tb); err != nil {
			return err
		}
		el = time.Since(t)
		covered += el
		r["share.publish_ms"] += ms(el)
	}

	run := &history.RunRecord{Dashboard: d.Name, FlowHash: d.FlowHash(), Status: "ok", TasksRun: st.TasksRun, CacheHits: len(st.CacheHits)}
	for _, tm := range st.Timings {
		run.Stages = append(run.Stages, history.StageRecord{
			Output: tm.Output, Stage: tm.Stage, RowsIn: tm.RowsIn, Rows: tm.Rows,
			DurationUS: tm.Duration.Microseconds(), QueueWaitUS: tm.QueueWait.Microseconds(), Path: tm.Path, Plan: tm.Plan,
		})
	}
	t = time.Now()
	if _, err := e.rec.Record(run); err != nil {
		return err
	}
	el = time.Since(t)
	covered += el
	r["history.record_ms"] += ms(el)
	r["covered_ms"] += ms(covered)
	return nil
}

// interactions times the interactive calls on a run dashboard, n times
// each: a seeded slider selection and a page render when the dashboard
// has the slider, and the JSON encode of endpoint when one is named.
func interactions(r rep, d *dashboard.Dashboard, endpoint string, rng *rand.Rand, n int) error {
	var sel, render, encode []float64
	for i := 0; i < n; i++ {
		if _, ok := d.Widget("ipl_duration"); ok {
			a, b := rng.Intn(len(iplDates)), rng.Intn(len(iplDates))
			if a > b {
				a, b = b, a
			}
			t := time.Now()
			if err := d.SelectRange("ipl_duration", iplDates[a], iplDates[b]); err != nil {
				return err
			}
			sel = append(sel, ms(time.Since(t)))
			r["cube.widgets_refreshed"] = float64(len(d.Dependents("ipl_duration")))
			var page bytes.Buffer
			t = time.Now()
			if err := d.RenderHTML(&page); err != nil {
				return err
			}
			render = append(render, ms(time.Since(t)))
			r["widget.html_bytes"] = float64(page.Len())
		}
		if endpoint == "" {
			continue
		}
		tb, ok := d.Endpoint(endpoint)
		if !ok {
			return fmt.Errorf("no endpoint %s", endpoint)
		}
		t := time.Now()
		body, err := connector.EncodeJSON(tb)
		if err != nil {
			return err
		}
		encode = append(encode, ms(time.Since(t)))
		r["server.response_bytes"] = float64(len(body))
	}
	for key, xs := range map[string][]float64{"cube.select_ms": sel, "widget.render_ms": render, "server.encode_ms": encode} {
		if len(xs) > 0 {
			r[key] = median(xs)
		}
	}
	return nil
}

// traceRun performs the workload's op traceReps times in-process and
// reports the median of each per-layer metric, plus the admission
// deltas serve reported over the HTTP run that preceded it.
func traceRun(cfg *config, out *outcome) (metrics, []string, error) {
	env, err := newTraceEnv(filepath.Join(cfg.work, "trace"))
	if err != nil {
		return nil, nil, err
	}
	reps, err := traceWorkload(cfg, env)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	var lines []string
	m := metrics{}
	col := func(key string) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = r[key]
		}
		return xs
	}
	ratio := func(num, den string) float64 {
		var xs []float64
		for _, r := range reps {
			if r[den] > 0 {
				xs = append(xs, r[num]/r[den])
			}
		}
		return median(xs)
	}
	var wal []float64
	for _, r := range reps {
		if r["wal_compacted"] == 0 {
			wal = append(wal, r["store.wal_bytes_per_op"])
		}
	}
	derived := map[string]float64{
		"connector.rows_per_s":          ratio("load_rows", "load_s"),
		"connector.alloc_bytes_per_row": ratio("load_alloc", "load_rows"),
		"batch.node_cache_hit_ratio":    ratio("cache_hits", "cache_lookups"),
		"runtime.gc_cpu_share":          ratio("gc_cpu", "total_cpu"),
		"store.wal_bytes_per_op":        median(wal),
		"trace.unattributed_ms":         median(diff(col("dashboard.run_ms"), col("covered_ms"))),
		"trace.untraced_op_p50_ms":      out.opP50,
	}
	adm := out.admission
	derived["admission.queue_wait_ms"] = 1000 * adm["si_admission_queue_wait_seconds_sum"] / max(adm["si_admission_admitted_total"], 1)
	derived["admission.shed"] = adm["si_admission_shed_total"]
	if n := adm["si_result_cache_hits_total"] + adm["si_result_cache_misses_total"]; n > 0 {
		derived["admission.result_cache_hit_ratio"] = adm["si_result_cache_hits_total"] / n
	}
	for _, s := range perLayer {
		v, ok := derived[s.Name]
		if !ok {
			v = median(col(s.Name))
		}
		if err := m.set(s.Name, v, s.Unit); err != nil {
			return nil, nil, err
		}
	}
	lines = append(lines, fmt.Sprintf("trace reps %d; traced total %.3f ms vs untraced op_p50 %.3f ms; run %.3f ms of which unattributed %.3f ms",
		len(reps), m["trace.total_ms"].Value, m["trace.untraced_op_p50_ms"].Value, m["dashboard.run_ms"].Value, m["trace.unattributed_ms"].Value))
	return m, lines, nil
}

func diff(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// traceWorkload runs the workload's op in-process and returns one rep
// per repetition.
func traceWorkload(cfg *config, env *traceEnv) ([]rep, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	nreps := traceReps
	if cfg.smoke {
		nreps = 2
	}
	var reps []rep
	switch cfg.workload {
	case "rerun":
		rows := rerunRows
		if cfg.smoke {
			rows = smokeRows
		}
		if err := os.WriteFile(filepath.Join(env.dir, "data", "tickets.csv"), gen.TicketsCSV(cfg.seed, rows), 0o644); err != nil {
			return nil, err
		}
		for i := 0; i < rerunWarmups; i++ {
			if _, err := env.realRun(rep{}, "tickets", ticketsFlow, nil); err != nil {
				return nil, err
			}
		}
		for i := 0; i < nreps; i++ {
			r := rep{}
			d, err := env.realRun(r, "tickets", ticketsFlow, nil)
			if err != nil {
				return nil, err
			}
			if err := env.decompose(r, "tickets", ticketsFlow, nil, d); err != nil {
				return nil, err
			}
			if err := interactions(r, d, "by_day", rng, 1); err != nil {
				return nil, err
			}
			reps = append(reps, r)
		}
	case "fresh", "interact":
		res := resources()
		res["tweets.csv"] = tweetsBatch(cfg, -1)
		if _, err := env.realRun(rep{}, "ipl_processing", processingFlow, res); err != nil {
			return nil, err
		}
		if _, err := env.realRun(rep{}, "clash_of_titans", consumptionFlow, nil); err != nil {
			return nil, err
		}
		for i := 0; i < nreps; i++ {
			r := rep{}
			if cfg.workload == "fresh" {
				res := resources()
				res["tweets.csv"] = tweetsBatch(cfg, i)
				proc, err := env.realRun(r, "ipl_processing", processingFlow, res)
				if err != nil {
					return nil, err
				}
				clash, err := env.realRun(r, "clash_of_titans", consumptionFlow, nil)
				if err != nil {
					return nil, err
				}
				if err := env.decompose(r, "ipl_processing", processingFlow, res, proc); err != nil {
					return nil, err
				}
				if err := env.decompose(r, "clash_of_titans", consumptionFlow, nil, clash); err != nil {
					return nil, err
				}
				if err := interactions(r, clash, "", rng, 1); err != nil {
					return nil, err
				}
				if err := interactions(r, proc, "players_tweets", rng, 1); err != nil {
					return nil, err
				}
			} else {
				viewer, err := env.realRun(r, "viewer_0", viewerFlow, nil)
				if err != nil {
					return nil, err
				}
				if err := env.decompose(r, "viewer_0", viewerFlow, nil, viewer); err != nil {
					return nil, err
				}
				n := interactOps
				if cfg.smoke {
					n = 3
				}
				if err := interactions(r, viewer, "player_totals", rng, n); err != nil {
					return nil, err
				}
				// The op is one request of the mix; a result-cache hit
				// (the 5% of runs) does no layer work.
				r["trace.total_ms"] = 0.60*r["cube.select_ms"] + 0.20*r["widget.render_ms"] + 0.15*r["server.encode_ms"]
			}
			reps = append(reps, r)
		}
	default:
		return nil, fmt.Errorf("no traced run for workload %q", cfg.workload)
	}
	return reps, nil
}
