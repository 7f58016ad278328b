package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/sensor"
	"cqm/internal/serve"
)

// runMainEnv, when set, makes the test binary run cqmserve's main on its
// own arguments instead of the tests: the tests re-execute themselves to
// get a real daemon process without building one.
const runMainEnv = "CQMSERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSIGTERMAtStartupDrains(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-binary", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	hung := time.AfterFunc(2*time.Minute, func() { _ = cmd.Process.Kill() })
	// Whichever way the test ends, a t.Fatal included, the daemon is killed
	// and reaped; after a clean exit both calls fail harmlessly.
	t.Cleanup(func() {
		hung.Stop()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	// Signal the moment the last address line appears, as a supervisor
	// that waits only for the daemon to be reachable would.
	var out []string
	signalled, drained := false, false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		out = append(out, line)
		if !signalled && strings.HasPrefix(line, "binary:") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			signalled = true
		}
		drained = drained || strings.HasPrefix(line, "drained:")
	}
	err = cmd.Wait()
	if !signalled {
		t.Fatalf("no binary: line; stdout:\n%s\nstderr:\n%s", strings.Join(out, "\n"), stderr.String())
	}
	if err != nil || !drained {
		t.Fatalf("exit %v, drained line %v; stdout:\n%s\nstderr:\n%s", err, drained, strings.Join(out, "\n"), stderr.String())
	}
}

// daemon is a running cqmserve re-executed from the test binary.
type daemon struct {
	cmd    *exec.Cmd
	stderr *strings.Builder
	// addr is the bound HTTP address.
	addr string
	// startup holds the stdout lines up to and including the http: line.
	startup []string
	// rest carries the remaining stdout lines; it closes at EOF.
	rest chan string
}

// startDaemon runs cqmserve with args and waits for its http: line. The
// daemon is killed and reaped when the test ends, whatever way it ends.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{
		cmd:    exec.Command(os.Args[0], args...),
		stderr: &strings.Builder{},
		rest:   make(chan string, 64),
	}
	d.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	d.cmd.Stderr = d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	hung := time.AfterFunc(2*time.Minute, func() { _ = d.cmd.Process.Kill() })
	t.Cleanup(func() {
		hung.Stop()
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for d.addr == "" && sc.Scan() {
		line := sc.Text()
		d.startup = append(d.startup, line)
		if rest, ok := strings.CutPrefix(line, "http: http://"); ok {
			d.addr, _, _ = strings.Cut(rest, "/")
		}
	}
	if d.addr == "" {
		_ = d.cmd.Wait() // stdout closed, so the daemon exited; Wait settles stderr
		t.Fatalf("no http: line; stdout:\n%s\nstderr:\n%s", strings.Join(d.startup, "\n"), d.stderr.String())
	}
	go func() {
		defer close(d.rest)
		for sc.Scan() {
			d.rest <- sc.Text()
		}
	}()
	return d
}

// stop sends SIGTERM and fails the test unless the daemon drains and
// exits 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	drained := false
	for line := range d.rest {
		drained = drained || strings.HasPrefix(line, "drained:")
	}
	if err := d.cmd.Wait(); err != nil || !drained {
		t.Fatalf("exit %v, drained line %v; stderr:\n%s", err, drained, d.stderr.String())
	}
}

// score POSTs one request to /score.
func (d *daemon) score(t *testing.T, req serve.JSONRequest) serve.JSONResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+d.addr+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.JSONResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /score answer (HTTP %d): %v", resp.StatusCode, err)
	}
	return out
}

// assertNoTraining fails the test if the daemon trained a model at start.
func (d *daemon) assertNoTraining(t *testing.T) {
	t.Helper()
	for _, line := range d.startup {
		if strings.HasPrefix(line, "training in-process model") {
			t.Errorf("restart trained a model; stdout:\n%s", strings.Join(d.startup, "\n"))
		}
	}
}

// TestAdaptRestartServesPersistedModel starts -adapt on a directory an
// earlier run left behind: it holds a model that differs from the seed
// model (a promoted candidate, say) and a threshold that differs from the
// trained one. The daemon must answer /score with that model's
// Measure.Score at that threshold, and train nothing.
func TestAdaptRestartServesPersistedModel(t *testing.T) {
	seedModel, _, err := serve.TrainQuickModel(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := serve.TrainQuickModel(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := serve.NewWorkload(serve.WorkloadConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]serve.Item, 16)
	var qs []float64
	differs := false
	for i := range items {
		items[i] = wl.Item(0, i)
		class := sensor.ContextByID(int(items[i].ClassID))
		q, err := model.Score(items[i].Cues, class)
		if err != nil {
			continue
		}
		qs = append(qs, q)
		seedQ, seedErr := seedModel.Score(items[i].Cues, class)
		differs = differs || seedErr != nil || seedQ != q
	}
	if len(qs) < 2 || !differs {
		t.Fatalf("the persisted model does not tell itself apart from the seed model on these items")
	}
	// The median q splits the items into accepted and discarded ones.
	slices.Sort(qs)
	threshold := qs[len(qs)/2]

	dir := t.TempDir()
	if err := ckpt.WriteArtifact(filepath.Join(dir, "model.json"), ckpt.Manifest{Kind: ckpt.KindMeasure}, model); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteArtifact(filepath.Join(dir, thresholdName), ckpt.Manifest{Kind: thresholdKind}, threshold); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, "-addr", "127.0.0.1:0", "-adapt", dir, "-threshold", "0.5")
	d.assertNoTraining(t)
	for i, it := range items {
		got := d.score(t, serve.JSONRequest{Source: "restart", Seq: uint16(i), Class: int(it.ClassID), Cues: it.Cues})
		q, err := model.Score(it.Cues, sensor.ContextByID(int(it.ClassID)))
		want := "epsilon"
		if err == nil {
			want = "discarded"
			if q > threshold {
				want = "accepted"
			}
		}
		gotQ := "none"
		if got.Q != nil {
			gotQ = strconv.FormatFloat(*got.Q, 'g', -1, 64)
		}
		if got.Status != want || (err == nil && gotQ != strconv.FormatFloat(q, 'g', -1, 64)) {
			t.Errorf("item %d: /score answered %s q=%s, want %s q=%v at threshold %v", i, got.Status, gotQ, want, q, threshold)
		}
	}
	d.stop(t)
}

// TestAdaptSeedsOnceThenRestarts starts -adapt on an empty directory, which
// trains the seed model and persists it with the -threshold given, then
// restarts on the same directory with a different -threshold: the restart
// trains nothing and serves the persisted model at the persisted threshold.
func TestAdaptSeedsOnceThenRestarts(t *testing.T) {
	dir := t.TempDir()
	first := startDaemon(t, "-addr", "127.0.0.1:0", "-adapt", dir, "-threshold", "0.375")
	first.stop(t)
	model, err := os.ReadFile(filepath.Join(dir, "model.json"))
	if err != nil {
		t.Fatal(err)
	}

	second := startDaemon(t, "-addr", "127.0.0.1:0", "-adapt", dir, "-threshold", "0.9", "-train-seed", "5")
	second.assertNoTraining(t)
	if !strings.Contains(second.startup[len(second.startup)-1], "threshold 0.375)") {
		t.Errorf("restart serves %q, want the persisted threshold 0.375", second.startup[len(second.startup)-1])
	}
	second.stop(t)
	if after, err := os.ReadFile(filepath.Join(dir, "model.json")); err != nil || !bytes.Equal(after, model) {
		t.Errorf("restart rewrote the persisted model (read error %v)", err)
	}
}

// TestAdaptRefusesInvalidSeedModel starts -adapt on an empty directory
// with a -model file that is not a measure artifact. A seeded directory is
// never seeded again, so the daemon must exit non-zero and leave the
// directory unseeded.
func TestAdaptRefusesInvalidSeedModel(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(t.TempDir(), "bad-model")
	if err := os.WriteFile(bad, []byte(`{"not": "an artifact"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A daemon that starts serving instead of refusing is killed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-adapt", dir, "-model", bad)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "valid measure artifact") {
		t.Fatalf("exit %v, want a refusal naming the invalid -model; output:\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, thresholdName)); !os.IsNotExist(err) {
		t.Errorf("%s after a refused seed: %v, want it absent", thresholdName, err)
	}
}

// TestColdStartRunsNoGC runs the daemon with the runtime's GC trace on
// and fails if a collection ran before it listened: the in-process
// training pass must fit in the heap the runtime grants before its first
// cycle, so no training garbage is collected, or left resident, before
// the first answer. Stdout and stderr share one pipe, so the trace lines
// arrive in order with the address lines.
func TestColdStartRunsNoGC(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-binary", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1", "GODEBUG=gctrace=1")
	cmd.Stdout, cmd.Stderr = w, w
	err = cmd.Start()
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	hung := time.AfterFunc(2*time.Minute, func() { _ = cmd.Process.Kill() })
	t.Cleanup(func() {
		hung.Stop()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	var out, gcs []string
	listening, drained := false, false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		out = append(out, line)
		if !listening && strings.HasPrefix(line, "gc ") {
			gcs = append(gcs, line)
		}
		if !listening && strings.HasPrefix(line, "binary:") {
			listening = true
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		}
		drained = drained || strings.HasPrefix(line, "drained:")
	}
	if err := cmd.Wait(); err != nil || !listening || !drained {
		t.Fatalf("exit %v, binary line %v, drained line %v; output:\n%s", err, listening, drained, strings.Join(out, "\n"))
	}
	if len(gcs) > 0 {
		t.Errorf("%d GC cycles before the daemon listened:\n%s", len(gcs), strings.Join(gcs, "\n"))
	}
}

// startupGauges scrapes /metrics and returns the cqm_startup_seconds
// series by phase.
func (d *daemon) startupGauges(t *testing.T) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	phases := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), metricStartup+`{phase="`)
		if !ok {
			continue
		}
		phase, value, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%s phase %s: %v", metricStartup, phase, err)
		}
		phases[phase] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return phases
}

// TestStartupPhaseGauges scrapes the start-up gauges of a daemon that
// trains in process and of one handed a -model artifact: the first
// reports a train phase inside its listen phase, the second only a
// listen phase.
func TestStartupPhaseGauges(t *testing.T) {
	trained := startDaemon(t, "-addr", "127.0.0.1:0")
	got := trained.startupGauges(t)
	trained.stop(t)
	if len(got) != 2 || !(got["train"] > 0) || !(got["listen"] >= got["train"]) {
		t.Errorf("in-process training: start-up gauges %v, want 0 < train <= listen", got)
	}

	m, _, err := serve.TrainQuickModel(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := ckpt.WriteArtifact(path, ckpt.Manifest{Kind: ckpt.KindMeasure}, m); err != nil {
		t.Fatal(err)
	}
	loaded := startDaemon(t, "-addr", "127.0.0.1:0", "-model", path)
	got = loaded.startupGauges(t)
	loaded.stop(t)
	if _, ok := got["train"]; len(got) != 1 || ok || !(got["listen"] > 0) {
		t.Errorf("-model: start-up gauges %v, want only listen > 0", got)
	}
}
