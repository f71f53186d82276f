package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"shareinsights/internal/gen"
)

// Input sizes. The closed-loop sizes keep the calmest half of a run
// above 100 timed ops on a 2-CPU host, so op_p90_ms has at least ten
// samples beyond it.
const (
	rerunRows      = 30000
	freshTweets    = 10000
	smokeRows      = 2000
	smokeTweets    = 1000
	rerunWarmups   = 4
	setupRepeats   = 5
	interactConns  = 2
	interactRate   = 120 // requests per second; NOTES.md gives the sizing
	interactWarmup = 8   // untimed requests of each kind per viewer before the open loop
	latenessBudget = 5 * time.Millisecond
	// openLoopGrace bounds how long after the schedule ends a backlog may
	// drain; requests still unsent then count as failed.
	openLoopGrace = 5 * time.Second
)

// interactFlags are the serving flags interact adds: an admission gate
// and the shared result cache.
var interactFlags = []string{"-max-inflight", "2", "-queue-depth", "16", "-result-cache", "64"}

// publishedObjects are the endpoints processingFlow publishes.
var publishedObjects = []string{"players_tweets", "team_tweets", "tagcloud_tweets", "tm_rgn_raw_cnt"}

// setupServe starts serve and runs setup on it, setupRepeats times on
// fresh directories (once under -trace or -smoke), and returns the last
// serve still running with the median set-up time. prepare writes the
// generated inputs into a directory before serve starts, outside the
// timed set-up.
func setupServe(cfg *config, flags []string, prepare func(dir string) error, setup func(c *client) error) (*serveProc, float64, error) {
	reps := setupRepeats
	if cfg.trace || cfg.smoke {
		reps = 1
	}
	var times []float64
	for i := 0; i < reps; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("serve-%d", i))
		if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
			return nil, 0, err
		}
		if prepare != nil {
			if err := prepare(dir); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		sp, err := startServe(cfg.serveBin, dir, flags...)
		if err != nil {
			return nil, 0, err
		}
		c := newClient(sp.base)
		err = setup(c)
		c.close()
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			sp.stop()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if i < reps-1 {
			if err := sp.stop(); err != nil {
				return nil, 0, err
			}
			os.RemoveAll(dir)
			continue
		}
		return sp, median(times), nil
	}
	panic("unreachable")
}

// finish stops serve after reading its peak RSS and adds the metrics
// every workload reports.
func finish(out *outcome, sp *serveProc, setupS float64) error {
	rss, err := sp.peakRSSMB()
	if err != nil {
		sp.stop()
		return err
	}
	out.note("serve_gomaxprocs %d", sp.cpusAllowed())
	if err := sp.stop(); err != nil {
		return fmt.Errorf("stop serve: %w", err)
	}
	if err := out.m.set("setup_s", setupS, "s"); err != nil {
		return err
	}
	return out.m.set("peak_rss_mb", rss, "MB")
}

// timeline records a measured interval's ops by the window they started
// in, and the host's steal counter at every window boundary. Other
// guests on a shared host take CPU from this one in bursts, and that
// stolen time only ever adds latency; the latency figures are taken
// over the half of the windows (rounded up) that lost the least of it.
type timeline struct {
	start time.Time
	win   time.Duration
	ops   []samples
	steal []stealMeter // written by the sampler until done is closed
	stop  chan struct{}
	done  chan struct{}
}

// timelineWindows is how many windows a measured interval is cut into.
const timelineWindows = 5

func newTimeline(start time.Time, length time.Duration) *timeline {
	tl := &timeline{
		start: start,
		win:   length / timelineWindows,
		ops:   make([]samples, timelineWindows),
		steal: make([]stealMeter, timelineWindows+1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(tl.done)
		for i := range tl.steal {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(i) * tl.win))):
			case <-tl.stop:
				return
			}
			tl.steal[i] = readSteal()
		}
	}()
	return tl
}

// add records an op that started (or, in an open loop, was due) at t.
func (tl *timeline) add(t time.Time, lat time.Duration) {
	if w := int(t.Sub(tl.start) / tl.win); w >= 0 && w < len(tl.ops) {
		tl.ops[w] = append(tl.ops[w], lat)
	}
}

// abandon stops the sampler on an error path.
func (tl *timeline) abandon() {
	close(tl.stop)
	<-tl.done
}

// calmest waits for the last window to end and returns the ops of the
// least-stolen half of the windows, with the steal share of each window.
func (tl *timeline) calmest() (samples, []float64) {
	<-tl.done
	shares := make([]float64, len(tl.ops))
	order := make([]int, len(tl.ops))
	for i := range tl.ops {
		shares[i] = tl.steal[i+1].shareSince(tl.steal[i])
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
	var out samples
	for _, i := range order[:(len(order)+1)/2] {
		out = append(out, tl.ops[i]...)
	}
	return out, shares
}

// opMetrics reports serve_cpu_ms_per_op: serve's CPU time over the
// whole interval per op in it. It prints op_p50_ms and op_p90_ms over
// the calmest half of the interval and, for a closed loop, ops_per_s:
// those ops over the time spent waiting on them, which excludes the
// untimed oracle requests between ops.
func opMetrics(out *outcome, tl *timeline, closed bool) error {
	lat, shares := tl.calmest()
	var all int
	for _, w := range tl.ops {
		all += len(w)
	}
	out.note("steal share per window %.4f; ops %d, in the calmest half %d (highest supported percentile %s)",
		shares, all, len(lat), tailQuantile(len(lat)))
	if len(lat) == 0 {
		return fmt.Errorf("no op completed in the measured interval")
	}
	out.opP50 = lat.quantile(0.5)
	out.note("%s op_p50_ms %.4f ms op_p90_ms %.4f ms (not gated)", out.workload, out.opP50, lat.quantile(0.9))
	if closed {
		var busy time.Duration
		for _, d := range lat {
			busy += d
		}
		out.note("%s ops_per_s %.4f 1/s (not gated)", out.workload, float64(len(lat))/busy.Seconds())
	}
	return out.m.set("serve_cpu_ms_per_op", 1000*out.serveCPU/float64(all), "ms")
}

// interval brackets a workload's measured interval: serve's /metrics
// and CPU time at its start, and the host's steal counter.
type interval struct {
	metrics map[string]float64
	cpu     float64
	steal   stealMeter
}

// startInterval reads the starting counters and resets serve's peak RSS.
func startInterval(c *client, sp *serveProc) (*interval, error) {
	m, err := scrape(c)
	if err != nil {
		return nil, err
	}
	cpu, err := sp.cpuSeconds()
	if err != nil {
		return nil, err
	}
	return &interval{metrics: m, cpu: cpu, steal: readSteal()}, sp.resetPeakRSS()
}

// end records the interval's admission deltas, serve's CPU time and the
// host's steal share into out.
func (iv *interval) end(c *client, sp *serveProc, out *outcome) error {
	steal := readSteal().shareSince(iv.steal)
	m, err := scrape(c)
	if err != nil {
		return err
	}
	cpu, err := sp.cpuSeconds()
	if err != nil {
		return err
	}
	out.admission = delta(iv.metrics, m)
	out.serveCPU = cpu - iv.cpu
	out.note("host steal share %.4f, serve cpu %.2f s over the interval", steal, out.serveCPU)
	return nil
}

// scrape reads serve's /metrics.
func scrape(c *client) (map[string]float64, error) {
	b, err := c.must("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return scrapeMetrics(b), nil
}

// ---------------------------------------------------------------------
// rerun

func runRerun(cfg *config) (*outcome, error) {
	rows := rerunRows
	if cfg.smoke {
		rows = smokeRows
	}
	payload := gen.TicketsCSV(cfg.seed, rows)
	want, err := ticketsExpected(payload)
	if err != nil {
		return nil, err
	}
	prepare := func(dir string) error {
		return os.WriteFile(filepath.Join(dir, "data", "tickets.csv"), payload, 0o644)
	}
	setup := func(c *client) error {
		if _, err := c.must("PUT", "/dashboards/tickets", []byte(ticketsFlow)); err != nil {
			return err
		}
		// Warm up until history has made the filter's pushdown part of
		// the plan, so every timed request runs the same plan.
		for i := 0; i < rerunWarmups; i++ {
			if _, err := c.must("POST", "/dashboards/tickets/run", nil); err != nil {
				return err
			}
		}
		b, err := c.must("GET", "/dashboards/tickets/explain", nil)
		if err != nil {
			return err
		}
		if !strings.Contains(string(b), "predicate_to_source") {
			return fmt.Errorf("filter not pushed to the source after %d warm-up runs", rerunWarmups)
		}
		return nil
	}
	sp, setupS, err := setupServe(cfg, nil, prepare, setup)
	if err != nil {
		return nil, err
	}
	out := &outcome{workload: cfg.workload, m: metrics{}}
	c := newClient(sp.base)
	defer c.close()
	iv, err := startInterval(c, sp)
	if err != nil {
		sp.stop()
		return nil, err
	}
	start := time.Now()
	tl := newTimeline(start, cfg.seconds)
	for deadline := start.Add(cfg.seconds); time.Now().Before(deadline); {
		out.attempted++
		t0 := time.Now()
		r, err := c.do("POST", "/dashboards/tickets/run", nil)
		d := time.Since(t0)
		if err != nil || r.status != 200 {
			out.mismatch("run: %v %s", err, statusOf(r))
			continue
		}
		tl.add(t0, d)
		// The oracle reads the endpoints between ops, untimed.
		if err := checkTickets(c, want); err != nil {
			out.mismatch("%v", err)
		}
	}
	if err := iv.end(c, sp, out); err != nil {
		tl.abandon()
		sp.stop()
		return nil, err
	}
	out.note("rerun rows %d", rows)
	if err := opMetrics(out, tl, true); err != nil {
		sp.stop()
		return nil, err
	}
	return out, finish(out, sp, setupS)
}

func statusOf(r *response) string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("status %d %s", r.status, truncate(r.body, 200))
}

// delta is after - before for every metric in after.
func delta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ---------------------------------------------------------------------
// fresh

// tweetsBatch is cycle i's tweet payload: a distinct seed per cycle, so
// no batch repeats within a run or across the set-up batch (i < 0).
func tweetsBatch(cfg *config, i int) []byte {
	return gen.TweetsCSV(gen.TweetsOptions{Seed: cfg.seed*1_000_003 + int64(i), N: tweetsPerBatch(cfg)})
}

func tweetsPerBatch(cfg *config) int {
	if cfg.smoke {
		return smokeTweets
	}
	return freshTweets
}

// resources are the uploaded dictionary and reference files the
// processing dashboard reads besides the tweets.
func resources() map[string][]byte {
	return map[string][]byte{
		"players.txt":    gen.PlayersDict(),
		"teams.csv":      gen.TeamsDict(),
		"cities.ind.csv": gen.CitiesDict(),
		"dim_teams.csv":  gen.DimTeamsCSV(),
	}
}

// setupIPL saves the section 3.7 group and uploads its reference files.
func setupIPL(c *client) error {
	if _, err := c.must("PUT", "/dashboards/ipl_processing", []byte(processingFlow)); err != nil {
		return err
	}
	if _, err := c.must("PUT", "/dashboards/clash_of_titans", []byte(consumptionFlow)); err != nil {
		return err
	}
	for name, b := range resources() {
		if _, err := c.must("PUT", "/dashboards/ipl_processing/data/"+name, b); err != nil {
			return err
		}
	}
	return nil
}

// cycle is fresh's op: upload a new batch, run the processing dashboard
// (which publishes), run the consumption dashboard. It returns the
// number of requests sent and the first failure.
func cycle(c *client, batch []byte) (int, error) {
	steps := []struct {
		method, path string
		body         []byte
	}{
		{"PUT", "/dashboards/ipl_processing/data/tweets.csv", batch},
		{"POST", "/dashboards/ipl_processing/run", nil},
		{"POST", "/dashboards/clash_of_titans/run", nil},
	}
	for i, s := range steps {
		r, err := c.do(s.method, s.path, s.body)
		if err != nil || r.status/100 != 2 {
			return i + 1, fmt.Errorf("%s %s: %v %s", s.method, s.path, err, statusOf(r))
		}
	}
	return len(steps), nil
}

// fetchPublished reads the processing dashboard's published endpoints
// and reduces each to an order-independent digest.
func fetchPublished(c *client) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range publishedObjects {
		b, err := c.must("GET", "/dashboards/ipl_processing/ds/"+name, nil)
		if err != nil {
			return nil, err
		}
		if out[name], err = digestJSON(b); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return out, nil
}

func runFresh(cfg *config) (*outcome, error) {
	setup := func(c *client) error {
		if err := setupIPL(c); err != nil {
			return err
		}
		_, err := cycle(c, tweetsBatch(cfg, -1))
		return err
	}
	sp, setupS, err := setupServe(cfg, nil, nil, setup)
	if err != nil {
		return nil, err
	}
	out := &outcome{workload: cfg.workload, m: metrics{}}
	c := newClient(sp.base)
	defer c.close()
	iv, err := startInterval(c, sp)
	if err != nil {
		sp.stop()
		return nil, err
	}
	served := map[int]map[string]string{}
	start := time.Now()
	tl := newTimeline(start, cfg.seconds)
	cycles := 0
	for deadline := start.Add(cfg.seconds); time.Now().Before(deadline); cycles++ {
		i := cycles
		batch := tweetsBatch(cfg, i) // generated outside the timed op
		t0 := time.Now()
		n, err := cycle(c, batch)
		d := time.Since(t0)
		out.attempted += n
		if err != nil {
			out.mismatch("cycle %d: %v", i, err)
			continue
		}
		tl.add(t0, d)
		if served[i], err = fetchPublished(c); err != nil {
			out.mismatch("cycle %d: %v", i, err)
		}
	}
	if err := iv.end(c, sp, out); err != nil {
		tl.abandon()
		sp.stop()
		return nil, err
	}
	if err := opMetrics(out, tl, true); err != nil {
		sp.stop()
		return nil, err
	}
	if err := finish(out, sp, setupS); err != nil {
		return nil, err
	}
	// Oracle, after serve stops: a sample of cycles re-run in-process
	// on the unoptimized row engine.
	checked := 0
	for _, i := range sampleCycles(cycles, cfg) {
		got, ok := served[i]
		if !ok {
			continue
		}
		want, err := referencePublished(tweetsBatch(cfg, i))
		if err != nil {
			return nil, err
		}
		for _, name := range publishedObjects {
			if got[name] != want[name] {
				out.mismatch("cycle %d: published %s differs from the reference run", i, name)
			}
		}
		checked++
	}
	out.note("fresh tweets per batch %d, cycles checked against the reference %d of %d", tweetsPerBatch(cfg), checked, cycles)
	return out, nil
}

// sampleCycles picks the cycles the fresh oracle re-runs: all of them
// in smoke mode, else the first, the last and six spread between.
func sampleCycles(n int, cfg *config) []int {
	if n == 0 {
		return nil
	}
	if cfg.smoke || n <= 8 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	seen := map[int]bool{0: true, n - 1: true}
	out := []int{0, n - 1}
	for len(out) < 8 {
		i := 1 + rng.Intn(n-2)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// interact

// interactReq is one scheduled request of the open loop.
type interactReq struct {
	kind   string // select, html, ds or run
	lo, hi string // select range
}

// iplDates are the slider's dates, 2013-05-02 through 2013-05-27.
var iplDates = func() []string {
	var out []string
	d := time.Date(2013, 5, 2, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 26; i++ {
		out = append(out, d.AddDate(0, 0, i).Format("2006-01-02"))
	}
	return out
}()

// schedule draws n requests from the mix: 60% select, 20% html,
// 15% ds, 5% run.
func schedule(seed int64, n int) []interactReq {
	rng := rand.New(rand.NewSource(seed))
	out := make([]interactReq, n)
	for i := range out {
		x := rng.Float64()
		switch {
		case x < 0.60:
			a, b := rng.Intn(len(iplDates)), rng.Intn(len(iplDates))
			if a > b {
				a, b = b, a
			}
			out[i] = interactReq{kind: "select", lo: iplDates[a], hi: iplDates[b]}
		case x < 0.80:
			out[i] = interactReq{kind: "html"}
		case x < 0.95:
			out[i] = interactReq{kind: "ds"}
		default:
			out[i] = interactReq{kind: "run"}
		}
	}
	return out
}

// done is one completed open-loop request.
type done struct {
	kind    string
	due     time.Duration // due time since the loop's start
	lat     time.Duration // reply time minus due time
	late    time.Duration // send time minus when it could first be sent
	ok      bool
	errText string
}

// htmlSample is a rendered page kept for the oracle with the selection
// it was rendered under.
type htmlSample struct {
	lo, hi string
	body   []byte
}

// connResult is one connection's share of the open loop.
type connResult struct {
	done []done
	html []htmlSample
	ds   [][]byte
}

func viewerName(i int) string { return fmt.Sprintf("viewer_%d", i) }

func runInteract(cfg *config) (*outcome, error) {
	batch := tweetsBatch(cfg, 0)
	ref, err := referenceTables(batch)
	if err != nil {
		return nil, err
	}
	setup := func(c *client) error {
		if err := setupIPL(c); err != nil {
			return err
		}
		if _, err := cycle(c, batch); err != nil {
			return err
		}
		for i := 0; i < interactConns; i++ {
			if _, err := c.must("PUT", "/dashboards/"+viewerName(i), []byte(viewerFlow)); err != nil {
				return err
			}
			if err := warmViewer(c, viewerName(i)); err != nil {
				return err
			}
		}
		return nil
	}
	sp, setupS, err := setupServe(cfg, interactFlags, nil, setup)
	if err != nil {
		return nil, err
	}
	out := &outcome{workload: cfg.workload, m: metrics{}}
	c := newClient(sp.base)
	defer c.close()
	// The published objects the viewers read must match the reference
	// before the reference can judge the viewers.
	got, err := fetchPublished(c)
	if err != nil {
		sp.stop()
		return nil, err
	}
	for _, name := range publishedObjects {
		if got[name] != ref.digests[name] {
			out.mismatch("published %s differs from the reference run", name)
		}
	}
	iv, err := startInterval(c, sp)
	if err != nil {
		sp.stop()
		return nil, err
	}
	total := int(float64(interactRate) * cfg.seconds.Seconds())
	reqs := schedule(cfg.seed, total)
	interval := time.Second / interactRate
	start := time.Now().Add(20 * time.Millisecond)
	tl := newTimeline(start, cfg.seconds)
	results := make([]connResult, interactConns)
	var wg sync.WaitGroup
	for k := 0; k < interactConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k] = openLoop(sp.base, viewerName(k), reqs, k, start, interval)
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := iv.end(c, sp, out); err != nil {
		tl.abandon()
		sp.stop()
		return nil, err
	}

	var all, sel samples
	var late []float64
	for _, r := range results {
		for _, d := range r.done {
			out.attempted++
			late = append(late, ms(d.late))
			if !d.ok {
				out.failed++
				if len(out.oracleErrs) < 5 {
					out.oracleErrs = append(out.oracleErrs, d.kind+": "+d.errText)
				}
				continue
			}
			all = append(all, d.lat)
			if d.kind == "select" {
				sel = append(sel, d.lat)
			}
			tl.add(start.Add(d.due), d.lat)
		}
	}
	if len(all) == 0 {
		tl.abandon()
		sp.stop()
		return nil, fmt.Errorf("no request completed")
	}
	lateP99 := quantileOf(late, 0.99)
	valid := lateP99 <= ms(latenessBudget)
	out.note("interact rate %d/s over %d connections, %d requests, generator lateness p99 %.3f ms (budget %v), valid %v",
		interactRate, interactConns, len(late), lateP99, latenessBudget, valid)
	out.note("interact op_p99_ms %.4f ms (n=%d, supported %s)", all.quantile(0.99), len(all), tailQuantile(len(all)))
	out.note("interact select_p50_ms %.4f ms select_p99_ms %.4f ms (n=%d, supported %s)",
		sel.quantile(0.5), sel.quantile(0.99), len(sel), tailQuantile(len(sel)))
	out.note("interact whole-run op_p50_ms %.4f op_p90_ms %.4f", all.quantile(0.5), all.quantile(0.9))
	if err := opMetrics(out, tl, false); err != nil {
		sp.stop()
		return nil, err
	}
	out.note("interact ops_per_s %.4f 1/s (not gated)", float64(len(all))/elapsed.Seconds())
	if err := finish(out, sp, setupS); err != nil {
		return nil, err
	}
	// Oracle, after serve stops: sampled pages against a reference
	// filter of the published objects, and the JSON endpoint against a
	// reference aggregation.
	checkedHTML, checkedDS := 0, 0
	for _, r := range results {
		for _, h := range r.html {
			if err := checkViewerHTML(h, ref); err != nil {
				out.mismatch("%v", err)
			}
			checkedHTML++
		}
		for _, b := range r.ds {
			if err := checkPlayerTotals(b, ref); err != nil {
				out.mismatch("%v", err)
			}
			checkedDS++
		}
	}
	out.note("interact pages checked %d, endpoint bodies checked %d", checkedHTML, checkedDS)
	return out, nil
}

// warmViewer runs a viewer once and sends it interactWarmup requests of
// each kind, ending on the slider's initial full range, which is the
// selection the open loop assumes at its start.
func warmViewer(c *client, viewer string) error {
	base := "/dashboards/" + viewer
	if _, err := c.must("POST", base+"/run", nil); err != nil {
		return err
	}
	full, _ := json.Marshal(map[string][]string{"range": {iplDates[0], iplDates[len(iplDates)-1]}})
	for i := 0; i < interactWarmup; i++ {
		for _, r := range []struct {
			method, path string
			body         []byte
		}{
			{"POST", base + "/select/ipl_duration", []byte(`{"range": ["2013-05-10", "2013-05-20"]}`)},
			{"GET", base + "/html", nil},
			{"GET", base + "/ds/player_totals", nil},
			{"POST", base + "/run", nil},
			{"POST", base + "/select/ipl_duration", full},
		} {
			if _, err := c.must(r.method, r.path, r.body); err != nil {
				return err
			}
		}
	}
	return nil
}

// openLoop sends connection k's share of reqs (every interactConns-th)
// at its due times over one keep-alive connection to its own viewer,
// timing each from when it was due.
func openLoop(base, viewer string, reqs []interactReq, k int, start time.Time, interval time.Duration) connResult {
	c := newClient(base)
	defer c.close()
	var res connResult
	lo, hi := iplDates[0], iplDates[len(iplDates)-1] // the slider's initial range
	free := start
	stop := start.Add(time.Duration(len(reqs))*interval + openLoopGrace)
	for i := k; i < len(reqs); i += interactConns {
		due := start.Add(time.Duration(i) * interval)
		if time.Now().After(stop) {
			res.done = append(res.done, done{kind: reqs[i].kind, errText: "not sent: backlog outlasted the grace period"})
			continue
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		q := reqs[i]
		var method, path string
		var body []byte
		switch q.kind {
		case "select":
			method, path = "POST", "/dashboards/"+viewer+"/select/ipl_duration"
			body, _ = json.Marshal(map[string][]string{"range": {q.lo, q.hi}})
		case "html":
			method, path = "GET", "/dashboards/"+viewer+"/html"
		case "ds":
			method, path = "GET", "/dashboards/"+viewer+"/ds/player_totals"
		case "run":
			method, path = "POST", "/dashboards/"+viewer+"/run"
		}
		sent := time.Now()
		r, err := c.do(method, path, body)
		free = time.Now()
		d := done{kind: q.kind, due: due.Sub(start), lat: free.Sub(due), late: sent.Sub(ready), ok: err == nil && r.status == 200}
		if !d.ok {
			d.errText = fmt.Sprintf("%v %s", err, statusOf(r))
		}
		res.done = append(res.done, d)
		if !d.ok {
			continue
		}
		switch q.kind {
		case "select":
			lo, hi = q.lo, q.hi
		case "html":
			// Keep every fourth page, at most 40, for the oracle.
			if len(res.done)%4 == 0 && len(res.html) < 40 {
				res.html = append(res.html, htmlSample{lo: lo, hi: hi, body: r.body})
			}
		case "ds":
			if len(res.ds) < 20 {
				res.ds = append(res.ds, r.body)
			}
		}
	}
	return res
}
