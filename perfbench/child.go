package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture this benchmark targets).
const clockTicks = 100

// child is one running cqmserve process.
type child struct {
	cmd      *exec.Cmd
	pid      int
	httpAddr string
	binAddr  string
	shards   int
	launched time.Time

	gcCycles atomic.Int64 // gctrace lines seen on stderr
	pipes    sync.WaitGroup
	stderr   tailBuffer
	exited   chan struct{}
	waitErr  error
}

// live tracks every running child so the watchdog can stop them all.
var live struct {
	sync.Mutex
	set map[*child]bool
}

var (
	httpLine   = regexp.MustCompile(`^http: http://(\S+)/score \((\d+) shards`)
	binaryLine = regexp.MustCompile(`^binary: (\S+) `)
)

// launch starts cqmserve with its default serving config on ephemeral
// loopback ports and waits until both fronts are listening. With gctrace
// the child's runtime reports every GC cycle on stderr.
func launch(bin string, gctrace bool) (*child, error) {
	c := &child{exited: make(chan struct{})}
	c.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-binary", "127.0.0.1:0")
	c.cmd.Env = childEnv(gctrace)
	// The child dies with the benchmark even if the benchmark is killed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c.launched = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	c.pid = c.cmd.Process.Pid
	live.Lock()
	if live.set == nil {
		live.set = make(map[*child]bool)
	}
	live.set[c] = true
	live.Unlock()

	ready := make(chan error, 1)
	c.pipes.Add(2)
	go func() {
		defer c.pipes.Done()
		c.readStdout(stdout, ready)
	}()
	go func() {
		defer c.pipes.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "gc ") {
				c.gcCycles.Add(1)
				continue
			}
			c.stderr.add(line)
		}
	}()
	go func() {
		c.pipes.Wait()
		c.waitErr = c.cmd.Wait()
		close(c.exited)
	}()

	select {
	case err = <-ready:
	case <-c.exited:
		err = fmt.Errorf("cqmserve exited before listening: %v: %s", c.waitErr, c.stderr.String())
	case <-time.After(30 * time.Second):
		err = errors.New("cqmserve did not start listening within 30s")
	}
	if err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// childEnv is the benchmark's environment minus any runtime tuning that
// would change the daemon's defaults, plus gctrace when asked for.
func childEnv(gctrace bool) []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GODEBUG=") || strings.HasPrefix(kv, "GOGC=") ||
			strings.HasPrefix(kv, "GOMEMLIMIT=") || strings.HasPrefix(kv, "GOMAXPROCS=") {
			continue
		}
		env = append(env, kv)
	}
	if gctrace {
		env = append(env, "GODEBUG=gctrace=1")
	}
	return env
}

// readStdout parses the bound addresses cqmserve prints, reports readiness
// once both fronts are up, and drains the rest of its output.
func (c *child) readStdout(r io.Reader, ready chan<- error) {
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		if signalled {
			continue
		}
		if m := httpLine.FindStringSubmatch(line); m != nil {
			c.httpAddr = m[1]
			c.shards, _ = strconv.Atoi(m[2])
		}
		if m := binaryLine.FindStringSubmatch(line); m != nil {
			c.binAddr = m[1]
		}
		if c.httpAddr != "" && c.binAddr != "" {
			signalled = true
			ready <- nil
		}
	}
}

// stop asks the child to drain and exit, and waits for it; a child that
// does not exit within 20 s is killed. A non-zero exit (cqmserve checks
// its drain accounting on the way out) is an error.
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(20 * time.Second):
		c.kill()
		return errors.New("cqmserve did not exit within 20s of SIGTERM")
	}
	c.forget()
	if c.waitErr != nil {
		return fmt.Errorf("cqmserve: %v: %s", c.waitErr, c.stderr.String())
	}
	return nil
}

// kill stops the child hard and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
	}
	c.forget()
}

func (c *child) forget() {
	live.Lock()
	delete(live.set, c)
	live.Unlock()
}

// killAll stops every running child (watchdog and error paths).
func killAll() {
	live.Lock()
	var cs []*child
	for c := range live.set {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// tailBuffer keeps the last lines of a child's stderr for error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 8 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "; ")
}

// procSample is the child's cost counters at one instant, read from
// /proc/<pid>.
type procSample struct {
	cpu     time.Duration // utime + stime
	ctxsw   int64         // voluntary + involuntary, summed over threads
	hwmKB   int64         // VmHWM
	threads int64
}

// sampleProc reads the child's counters. Context switches are summed over
// /proc/<pid>/task/* because each thread keeps its own.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return s, err
	}
	s.cpu = time.Duration(utime+stime) * time.Second / clockTicks

	status, err := readStatus(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	s.hwmKB = status["VmHWM"]
	s.threads = status["Threads"]

	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		ts, err := readStatus(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		s.ctxsw += ts["voluntary_ctxt_switches"] + ts["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// readStatus parses the leading integer of every "Key: value" line of a
// /proc status file.
func readStatus(path string) (map[string]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			out[key] = n
		}
	}
	return out, nil
}

// hostTicks reads the aggregate steal and total ticks of /proc/stat.
func hostTicks() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat layout")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // guest time is already folded into user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// scrape is one read of the child's /metrics: the raw text and its
// samples keyed by series ("name{labels}").
type scrape struct {
	bytes   int
	series  int
	samples map[string]float64
}

// scrapeMetrics fetches and parses /metrics.
func scrapeMetrics(addr string) (scrape, error) {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return scrape{}, err
	}
	s := scrape{bytes: len(body), samples: make(map[string]float64)}
	for _, line := range strings.Split(string(body), "\n") {
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
		s.series++
		s.samples[line[:i]] = v
	}
	return s, nil
}

// sum adds every sample whose series starts with prefix.
func (s scrape) sum(prefix string) float64 {
	var t float64
	for k, v := range s.samples {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// count is the number of series starting with prefix.
func (s scrape) count(prefix string) int {
	n := 0
	for k := range s.samples {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

// histQuantile interpolates quantile q of the histogram name over the
// observations made between two scrapes.
func histQuantile(before, after scrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after.samples {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v - before.samples[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := after.samples[name+"_count"] - before.samples[name+"_count"]
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	want := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= want {
			if b.n <= prev { // want is 0: nothing observed below this bound
				return b.le
			}
			return lo + (b.le-lo)*(want-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return bs[len(bs)-1].le
}
