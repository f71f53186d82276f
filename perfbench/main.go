// Command perfbench is the repository benchmark. It starts a durable
// `shareinsights serve` child process, drives one workload against it
// over loopback HTTP from this single generator process, checks every
// output against an oracle, and prints the end-to-end metrics; with
// -trace 1 it also times the calls into each layer's public functions
// in-process and prints the per-layer metrics instead. NOTES.md explains
// the workloads and metrics.
//
// Usage (from the repository root, through run.sh, which builds both
// binaries):
//
//	bash perfbench/run.sh --workload rerun --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer are the metrics BENCHMARK.json declares; a run
// prints exactly the first set with -trace 0 and the second with -trace 1.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"serve_cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"flowfile.parse_ms", "ms"},
	{"dashboard.compile_ms", "ms"},
	{"dashboard.run_ms", "ms"},
	{"dag.plan_ms", "ms"},
	{"dag.pushdowns", "count"},
	{"connector.load_ms", "ms"},
	{"connector.decode_ms", "ms"},
	{"connector.rows_per_s", "1/s"},
	{"connector.alloc_bytes_per_row", "B"},
	{"connector.attempts", "count"},
	{"table.fingerprint_ms", "ms"},
	{"batch.run_ms", "ms"},
	{"batch.rowlocal_ms", "ms"},
	{"batch.groupby_ms", "ms"},
	{"batch.topn_join_ms", "ms"},
	{"batch.queue_wait_ms", "ms"},
	{"batch.node_cache_hit_ratio", "ratio"},
	{"batch.columnar_fallbacks", "count"},
	{"share.publish_ms", "ms"},
	{"store.lastgood_put_ms", "ms"},
	{"store.fsyncs_per_op", "count"},
	{"store.wal_bytes_per_op", "B"},
	{"history.record_ms", "ms"},
	{"cube.select_ms", "ms"},
	{"cube.widgets_refreshed", "count"},
	{"widget.render_ms", "ms"},
	{"widget.html_bytes", "B"},
	{"server.encode_ms", "ms"},
	{"server.response_bytes", "B"},
	{"admission.queue_wait_ms", "ms"},
	{"admission.shed", "count"},
	{"admission.result_cache_hit_ratio", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"trace.unattributed_ms", "ms"},
	{"trace.total_ms", "ms"},
	{"trace.untraced_op_p50_ms", "ms"},
}

// metricSpec is one declared metric.
type metricSpec struct{ Name, Unit string }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool
	serveBin string
	work     string // this run's private scratch directory
}

// outcome is what a workload reports: its end-to-end metrics, request
// accounting, and human-readable lines (extra metrics, host metadata).
type outcome struct {
	workload  string
	m         metrics
	attempted int
	failed    int
	// oracleErrs are the output mismatches found (each also counted in
	// failed).
	oracleErrs []string
	lines      []string
	// admission holds serve's /metrics deltas over the measured
	// interval, for the traced run's admission figures.
	admission map[string]float64
	// serveCPU is serve's CPU time over the measured interval, seconds.
	serveCPU float64
	// opP50 is op_p50_ms over the calmest half of the interval.
	opP50 float64
}

func (o *outcome) note(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// mismatch records an oracle failure; only the first few are kept.
func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	if len(o.oracleErrs) < 5 {
		o.oracleErrs = append(o.oracleErrs, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*config) (*outcome, error){
	"rerun":    runRerun,
	"fresh":    runFresh,
	"interact": runInteract,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var secs, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: rerun, fresh or interact")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measured interval in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced in-process run")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs and a two-second interval: a functional check that finishes in seconds")
	flag.StringVar(&cfg.serveBin, "serve", "", "path of the shareinsights binary to start")
	work := flag.String("work", "", "scratch directory for serve state and data")
	flag.Parse()
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.serveBin == "" || *work == "" || secs < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -serve, -work, -seconds >= 1 and -trace 0|1")
		return 2
	}
	cfg.seconds = time.Duration(secs) * time.Second
	if cfg.smoke {
		cfg.seconds = 2 * time.Second
	}
	cfg.trace = traceFlag == 1
	var err error
	if cfg.work, err = os.MkdirTemp(*work, cfg.workload+"-"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	// A run must end within three minutes; give up well before that, or
	// on a signal, rather than exit with serve still running.
	abort := func(why string) {
		fmt.Fprintln(os.Stderr, "perfbench:", why)
		killRunning()
		os.RemoveAll(cfg.work)
		os.Exit(1)
	}
	watchdog := time.AfterFunc(170*time.Second, func() { abort("run exceeded 170s") })
	defer watchdog.Stop()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() { abort(fmt.Sprint("stopped by ", <-sigc)) }()

	out, err := fn(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		layers, lines, err := traceRun(&cfg, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s trace: %v\n", cfg.workload, err)
			return 1
		}
		out.lines = append(out.lines, lines...)
		out.m = layers
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := checkDeclared(out.m, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", cfg.workload, err)
		return 1
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	meta, _ := json.Marshal(hostMeta(&cfg))
	fmt.Fprintf(w, "meta %s\n", meta)
	for _, l := range out.lines {
		fmt.Fprintln(w, l)
	}
	for _, e := range out.oracleErrs {
		fmt.Fprintf(w, "oracle mismatch: %s\n", e)
	}
	errRate := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(w, "%s error_rate %.6f (failed %d of %d attempted)\n", cfg.workload, errRate, out.failed, out.attempted)
	names := make([]string, 0, len(out.m))
	for n := range out.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %v %s\n", cfg.workload, n, out.m[n].Value, out.m[n].Unit)
	}
	res, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0 && out.attempted > 0,
		"attempted": max(out.attempted, 1),
		"failed":    out.failed,
		"metrics":   out.m,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", res)
	return 0
}

// checkDeclared verifies a run reports exactly the declared metrics
// with their declared units.
func checkDeclared(m metrics, want []metricSpec) error {
	if len(m) != len(want) {
		return fmt.Errorf("reported %d metrics, %d declared", len(m), len(want))
	}
	for _, s := range want {
		got, ok := m[s.Name]
		if !ok {
			return fmt.Errorf("declared metric %s not reported", s.Name)
		}
		if got.Unit != s.Unit {
			return fmt.Errorf("metric %s: unit %s, declared %s", s.Name, got.Unit, s.Unit)
		}
	}
	return nil
}

// hostMeta is recorded with every result.
func hostMeta(cfg *config) map[string]any {
	model := ""
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return map[string]any{
		"workload":             cfg.workload,
		"seed":                 cfg.seed,
		"seconds":              cfg.seconds.Seconds(),
		"trace":                cfg.trace,
		"smoke":                cfg.smoke,
		"nproc":                runtime.NumCPU(),
		"cpu_model":            model,
		"go_version":           runtime.Version(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
	}
}
