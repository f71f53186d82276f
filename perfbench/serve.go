package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// running tracks the serve processes not yet stopped, so an aborted run
// can still stop them.
var running = struct {
	sync.Mutex
	procs map[*serveProc]bool
}{procs: map[*serveProc]bool{}}

// killRunning kills every serve process still running and waits for
// each to exit.
func killRunning() {
	running.Lock()
	defer running.Unlock()
	for p := range running.procs {
		p.cmd.Process.Kill()
		<-p.done
		delete(running.procs, p)
	}
}

// serveProc is one `shareinsights serve` child process.
type serveProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
}

// startServe launches serve with a durable state directory and a file
// data directory under dir, plus extra flags, and waits until it prints
// its listening address.
func startServe(bin, dir string, extra ...string) (*serveProc, error) {
	dataDir := filepath.Join(dir, "data")
	stateDir := filepath.Join(dir, "state")
	for _, d := range []string{dataDir, stateDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-data", dataDir, "-data-dir", stateDir}, extra...)
	cmd := exec.Command(bin, args...)
	// Serve dies with the benchmark even if the benchmark is killed
	// outright and cannot stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start serve: %w", err)
	}
	p := &serveProc{cmd: cmd, done: make(chan error, 1)}
	running.Lock()
	running.procs[p] = true
	running.Unlock()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "ShareInsights listening on "); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
		// Drain until exit so serve never blocks on a full pipe.
		io.Copy(io.Discard, out)
		p.done <- cmd.Wait()
	}()
	select {
	case addr := <-addrc:
		p.base = "http://" + addr
		return p, nil
	case err := <-p.done:
		running.Lock()
		delete(running.procs, p)
		running.Unlock()
		return nil, fmt.Errorf("serve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("serve did not report a listening address within 30s")
	}
}

// stop sends SIGTERM, waits for a clean exit, and kills serve if it has
// not exited within ten seconds.
func (p *serveProc) stop() error {
	running.Lock()
	defer running.Unlock()
	if !running.procs[p] {
		return nil
	}
	delete(running.procs, p)
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		return err
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("serve did not exit on SIGTERM")
	}
}

// procStatus reads one "Key: value" field of /proc/<pid>/status.
func (p *serveProc) procStatus(key string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc status", key)
}

// cpuSeconds is serve's user plus system CPU time so far, from
// /proc/<pid>/stat (all threads, in clock ticks of 1/100 s).
func (p *serveProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return (ut + st) / 100, nil
}

// hostSteal is the share of all CPU time the hypervisor gave to other
// guests since the previous reading, from /proc/stat.
type stealMeter struct{ steal, total float64 }

func readSteal() stealMeter {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var m stealMeter
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 {
			m.total += v
		}
		if i == 7 {
			m.steal = v
		}
	}
	return m
}

func (m stealMeter) shareSince(prev stealMeter) float64 {
	if m.total <= prev.total {
		return 0
	}
	return (m.steal - prev.steal) / (m.total - prev.total)
}

// resetPeakRSS resets serve's VmHWM to its current resident set, so the
// peak read later covers only the measured interval.
func (p *serveProc) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", p.cmd.Process.Pid), []byte("5"), 0)
}

// peakRSSMB is serve's VmHWM (peak resident set) in MiB.
func (p *serveProc) peakRSSMB() (float64, error) {
	v, err := p.procStatus("VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// cpusAllowed counts the CPUs serve may run on: its GOMAXPROCS, since
// the benchmark never sets GOMAXPROCS for it.
func (p *serveProc) cpusAllowed() int {
	v, err := p.procStatus("Cpus_allowed_list")
	if err != nil {
		return 0
	}
	return countCPUList(v)
}

// countCPUList counts the CPUs in a list such as "0-3,6".
func countCPUList(s string) int {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// client issues requests over one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one completed request.
type response struct {
	status int
	body   []byte
}

// do sends one request and reads the whole reply.
func (c *client) do(method, path string, body []byte) (*response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &response{status: resp.StatusCode, body: b}, nil
}

// must is do for set-up and check requests: a transport error or a
// non-2xx status is an error.
func (c *client) must(method, path string, body []byte) ([]byte, error) {
	r, err := c.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if r.status/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, r.status, truncate(r.body, 300))
	}
	return r.body, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// scrapeMetrics reads a Prometheus text exposition and sums every
// series of each metric name across its label sets.
func scrapeMetrics(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out
}
