// Command perfbench is the benchmark of the cqmserve scoring daemon.
//
// It launches the real cqmserve binary as a child process with its default
// serving config (in-process training from the default train seed, the
// quality engine and metrics registry on, CoDel shedding at 25 ms), drives
// it over loopback with one closed-loop workload, checks every answer
// against an in-process reference scorer, and prints its metrics, each by
// name with its unit. The server's cost is read from outside: from
// /proc/<pid> of the child and from the child's own /metrics. The last line
// of output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	perfbench -server BIN --workload fleet|serial|http --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced, replays the run's inputs through
// each layer's public function in process, reports the per-layer metrics,
// and writes every span to a JSON-lines file. See README.md.
package main

import (
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cqm/internal/core"
	"cqm/internal/particle"
	"cqm/internal/serve"
)

// Workload shapes.
const (
	fleetPens   = 20000 // distinct pens of the fleet workload
	fleetRounds = 10    // rounds every fleet pen sends after joining
	fleetWindow = 512   // frames in flight per fleet connection
	// joinWindow caps the frames in flight per connection while the fleet
	// joins. Joins are slow (a first-seen source re-sorts every source
	// name); with 512 in flight they queued for 20–100 ms, straddling
	// CoDel's 25 ms shedding target, and a run on a slow host state
	// failed. Pens of a building come online a few at a time; 16 keeps the
	// join queue far below the target.
	joinWindow = 16
	conns      = 2 // client connections of every workload
)

// Measurement shape.
const (
	setupLaunches = 11                     // cold launches behind setup_s
	warmup        = 500 * time.Millisecond // untimed lead-in of serial and http
	costWindow    = time.Second            // serial/http CPU sample length
	segment       = 5 * time.Second        // serial/http time per server launch
	watchdog      = 170 * time.Second      // hard cap on one run
)

// spec describes one workload.
type spec struct {
	name   string
	binary bool // binary front (else HTTP/JSON)
	pens   int
	why    string
}

var specs = []spec{
	{"fleet", true, fleetPens, "20,000 pens join a fresh server 2 x 16 at a time, then send 10 more rounds with 2 connections x 512 frames in flight"},
	{"serial", true, 2, "2 connections x 1 frame in flight on the binary front: the per-frame serving chain, batch size 1"},
	{"http", false, 2, "2 keep-alive clients x 1 POST /score in flight: the Submit wrapper plus the JSON codec"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	out      string
}

type bench struct {
	opts  options
	spec  spec
	model *core.Measure
	ref   *reference
	nodes []particle.NodeID
	clk   clock
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: fleet, serial or http")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.server, "server", "", "path of the cqmserve binary")
	flag.StringVar(&o.out, "out", ".", "directory for the traced run's span file")
	flag.Parse()

	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		killAll()
		os.Exit(2)
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", sig)
		killAll()
		os.Exit(2)
	}()
	res, err := run(o)
	timer.Stop()
	killAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	//lint:ignore determinism-taint the result line is a measurement: wall-clock costs are its payload
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	//lint:ignore determinism-taint the result line is a measurement: wall-clock costs are its payload
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload and assembles its result.
//
//lint:ignore determinism-taint a benchmark result is a measurement: wall-clock costs are its payload
func run(o options) (*result, error) {
	var sp spec
	for _, s := range specs {
		if s.name == o.workload {
			sp = s
		}
	}
	switch {
	case sp.name == "":
		return nil, fmt.Errorf("unknown workload %q (fleet, serial, http)", o.workload)
	case o.seconds < 1:
		return nil, errors.New("--seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return nil, errors.New("--trace must be 0 or 1")
	case o.server == "":
		return nil, errors.New("-server names the cqmserve binary to measure")
	}
	if _, err := os.Stat(o.server); err != nil {
		return nil, err
	}
	b := &bench{opts: o, spec: sp, clk: clock{base: time.Now()}}
	pool, err := serve.NewWorkload(serve.WorkloadConfig{Seed: o.seed})
	if err != nil {
		return nil, err
	}
	m, threshold, err := serve.TrainQuickModel(trainSeed, 0)
	if err != nil {
		return nil, err
	}
	b.model = m
	if b.ref, err = newReference(m, threshold, pool); err != nil {
		return nil, err
	}
	b.nodes = make([]particle.NodeID, fleetPens)
	for i := range b.nodes {
		b.nodes[i] = serve.PenNode(i)
	}

	steal0, total0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	echoUS, err := echoRTT()
	if err != nil {
		return nil, fmt.Errorf("loopback echo probe: %w", err)
	}
	say("perfbench: workload %s (%s), seed %d, %d s, trace %d", sp.name, sp.why, o.seed, o.seconds, o.trace)

	// Set-up launches are split around the timed phases, so their median
	// samples the host at both ends of the run.
	setup, serverProcs, err := b.setup(setupLaunches / 2)
	if err != nil {
		return nil, err
	}
	var trainS float64
	if o.trace == 1 {
		if trainS, err = trainTime(); err != nil {
			return nil, err
		}
	}
	d := time.Duration(o.seconds) * time.Second
	var (
		res    = &result{Metrics: make(map[string]metric)}
		phases []*phase
		traced *phase
	)
	plain, err := b.runPhase(d/time.Duration(1+o.trace), false)
	if err != nil {
		return nil, err
	}
	phases = append(phases, plain)
	if o.trace == 1 {
		if traced, err = b.runPhase(d/2, true); err != nil {
			return nil, err
		}
		phases = append(phases, traced)
	}
	late, _, err := b.setup(setupLaunches - len(setup))
	if err != nil {
		return nil, err
	}
	setup = append(setup, late...)
	var t tally
	for _, p := range phases {
		t.add(&p.t)
	}
	res.Attempted, res.Failed = t.sent, t.failed()
	res.Correct = res.Failed == 0 && res.Attempted > 0

	steal1, total1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	stealRatio := 0.0
	if total1 > total0 {
		stealRatio = float64(steal1-steal0) / float64(total1-total0)
	}
	say("host: nproc %d, GOMAXPROCS perfbench %d cqmserve %d, %s, commit %s, echo rtt %.1f us, steal %.4f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), serverProcs, runtime.Version(), commitOf(o.server), echoUS, stealRatio)

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if o.trace == 0 {
		put("setup_s", median(setup), "s")
		put("ok_ratio", float64(plain.t.ok)/float64(max(plain.t.sent, 1)), "ratio")
		put("frames_per_s", plain.framesPerS(), "frames/s")
		put("latency_p50_us", percentile(plain.t.latUS, 50), "us")
		put("cpu_us_per_frame", median(plain.cpuUS), "us")
		put("rss_mb", median(plain.hwmMB), "MB")
	} else {
		log := &spanLog{}
		layers, err := b.replayLayers(traced.batchMean(), log)
		if err != nil {
			return nil, err
		}
		cpu := median(plain.cpuUS)
		// Per-frame cost of the quality engine: warm observes, except that
		// one fleet frame in 1+fleetRounds is a pen's first sight.
		observe := layers.observe
		if sp.name == "fleet" {
			observe = (layers.joinAll + fleetRounds*layers.observe) / (1 + fleetRounds)
		}
		var explained float64
		if sp.binary {
			explained = layers.decode + layers.scoreMean + observe + layers.encode
		} else {
			explained = layers.http - layers.submit + layers.scoreMean + observe
		}
		explained /= 1e3
		put("serve.batch_mean", traced.batchMean(), "frames/batch")
		put("serve.sojourn_p50_ms", median(traced.sojournP50), "ms")
		put("serve.rejects", traced.rejects["total"], "count")
		for _, r := range rejectReasons {
			put("serve.rejects."+r, traced.rejects[r], "count")
		}
		put("serve.decode_ns", layers.decode, "ns")
		put("serve.encode_ns", layers.encode, "ns")
		put("serve.submit_ns", layers.submit, "ns")
		put("serve.http_ns", layers.http, "ns")
		put("core.score_ns", layers.score, "ns")
		put("core.score_batch_ns", layers.scoreMean, "ns")
		put("core.score_batch256_ns", layers.score256, "ns")
		put("core.allocs_per_frame", layers.allocsPerFrm, "allocs/frame")
		put("quality.observe_ns", layers.observe, "ns")
		for _, mk := range joinMarks {
			put("quality.join_ns."+mk.name, layers.join[mk.name], "ns")
		}
		put("quality.join_ns.mean", layers.joinAll, "ns")
		put("quality.sources", float64(traced.sources), "count")
		put("obs.series", float64(traced.series), "count")
		put("obs.scrape_bytes", float64(traced.scrapeBytes), "bytes")
		put("proc.ctxsw_per_frame", float64(traced.ctxsw)/float64(traced.frames), "switches/frame")
		put("proc.gc_per_kframe", 1e3*float64(traced.gc)/float64(traced.frames), "gc/kframe")
		put("proc.threads", float64(traced.threads), "count")
		put("setup.train_s", trainS, "s")
		put("setup.launch_s", median(setup)-trainS, "s")
		put("client.latency_p99_us", percentile(plain.t.latUS, 99), "us")
		put("client.latency_samples", float64(len(plain.t.latUS)), "count")
		put("client.cpu_us_per_frame", plain.clientCPU.Seconds()*1e6/float64(plain.frames), "us")
		put("client.send_ns", meanNS(traced.spans, nameSend), "ns")
		put("client.recv_ns", meanNS(traced.spans, nameRecv), "ns")
		put("host.echo_rtt_us", echoUS, "us")
		put("host.steal_ratio", stealRatio, "ratio")
		put("host.nproc", float64(runtime.NumCPU()), "count")
		put("host.gomaxprocs_bench", float64(runtime.GOMAXPROCS(0)), "count")
		put("host.gomaxprocs_server", float64(serverProcs), "count")
		put("trace.span_ns", layers.timerNS, "ns")
		put("trace.residual_us_per_frame", cpu-explained, "us")
		put("trace.explained_ratio", explained/cpu, "ratio")
		put("trace.overhead_ratio", median(traced.cpuUS)/cpu, "ratio")

		spanOut := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, o.seed))
		n, err := writeSpans(spanOut, append(traced.spans, log))
		if err != nil {
			return nil, err
		}
		say("spans: %d written to %s", n, spanOut)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		say("  %-28s %16.6g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	say("frames: %d sent, %d matched the reference, %d mismatched, %d unanswered",
		t.sent, t.ok, t.mismatches, t.sent-t.ok-t.mismatches)
	return res, nil
}

// say prints one human-readable report line.
func say(format string, args ...any) {
	//lint:ignore determinism-taint report lines are measurements: wall-clock costs are their payload
	fmt.Printf(format+"\n", args...)
}

// setup launches the daemon n times, cold, and returns each launch's time
// from exec to its first correct answer on the workload's front, and the
// daemon's GOMAXPROCS (its default shard count).
func (b *bench) setup(n int) ([]float64, int, error) {
	var times []float64
	procs := 0
	for i := 0; i < n; i++ {
		ch, err := launch(b.opts.server, false)
		if err != nil {
			return nil, 0, err
		}
		if err := probe(b.ref, ch, b.spec.binary); err != nil {
			ch.kill()
			return nil, 0, err
		}
		times = append(times, time.Since(ch.launched).Seconds())
		procs = ch.shards
		// cqmserve announces its listeners before it installs its SIGTERM
		// handler, so a SIGTERM this early can kill it undrained; an idle
		// set-up launch has nothing to drain, so it is killed outright.
		ch.kill()
	}
	return times, procs, nil
}

// phase is what one timed phase measured.
type phase struct {
	t         tally
	frames    int64
	cpuUS     []float64 // server CPU per answered frame, per sample
	fps       []float64 // fleet: answered frames per second, per server
	gaps      []float64 // serial, http: seconds between a connection's answers
	hwmMB     []float64 // server peak RSS, per server
	clientCPU time.Duration

	// Traced phases only.
	batchSum, batchCount float64
	sojournP50           []float64
	rejects              map[string]float64
	ctxsw, gc            int64
	threads              int64
	sources, series      int
	scrapeBytes          int
	spans                []*spanLog
}

// framesPerS is the fleet's median throughput over its servers, or, for the
// one-in-flight workloads, the typical rate of their connections: conns
// divided by the median interval between a connection's answers. The mean
// rate of a one-in-flight client is set by how often the host parks and
// re-wakes its vCPUs, which drifts far more between runs than the median
// round trip does.
func (p *phase) framesPerS() float64 {
	if len(p.gaps) == 0 {
		return median(p.fps)
	}
	return conns / median(p.gaps)
}

func (p *phase) batchMean() float64 {
	if p.batchCount == 0 {
		return 0
	}
	return p.batchSum / p.batchCount
}

// rejectReasons are the reject labels of cqm_serve_rejected_total.
var rejectReasons = []string{"overloaded", "draining", "unavailable", "internal", "deadline", "shed"}

// runPhase runs the workload for about d: fleet as repetitions of its
// fixed work, each on a freshly launched server, until d has passed;
// serial and http as one server loaded for d after a warm-up.
func (b *bench) runPhase(d time.Duration, traced bool) (*phase, error) {
	p := &phase{rejects: make(map[string]float64)}
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	if b.spec.name == "fleet" {
		start := time.Now()
		for len(p.fps) == 0 || time.Since(start) < d {
			if err := b.fleetRep(p, traced); err != nil {
				return nil, err
			}
		}
	} else {
		segs := max(1, int(d/segment))
		for i := 0; i < segs; i++ {
			if err := b.steady(p, d/time.Duration(segs), traced); err != nil {
				return nil, err
			}
		}
	}
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	p.clientCPU = cpu1 - cpu0
	return p, nil
}

// addScrapes folds the traced scrapes and /proc counters of one server
// into p.
func (p *phase) addScrapes(s0, s1 scrape, pr0, pr1 procSample, gc int64) {
	p.batchSum += s1.samples["cqm_serve_batch_size_sum"] - s0.samples["cqm_serve_batch_size_sum"]
	p.batchCount += s1.samples["cqm_serve_batch_size_count"] - s0.samples["cqm_serve_batch_size_count"]
	p.sojournP50 = append(p.sojournP50, histQuantile(s0, s1, "cqm_serve_queue_sojourn_ms", 0.5))
	for _, r := range rejectReasons {
		k := fmt.Sprintf(`cqm_serve_rejected_total{reason=%q}`, r)
		p.rejects[r] += s1.samples[k] - s0.samples[k]
	}
	p.rejects["total"] += s1.sum("cqm_serve_rejected_total") - s0.sum("cqm_serve_rejected_total")
	p.ctxsw += pr1.ctxsw - pr0.ctxsw
	p.gc += gc
	p.threads = pr1.threads
	p.sources = s1.count("cqm_quality_observations_total{")
	p.series = s1.series
	p.scrapeBytes = s1.bytes
}

// newConns makes the run's client connections.
func (b *bench) newConns(answered *atomic.Int64, measuring *atomic.Bool, traced bool) []*conn {
	cs := make([]*conn, conns)
	for i := range cs {
		cs[i] = &conn{ref: b.ref, nodes: b.nodes, clk: b.clk, id: i, conns: conns, answered: answered, measuring: measuring}
		if traced {
			cs[i].spans = &spanLog{}
		}
	}
	return cs
}

// collect folds the connections' tallies and spans into p.
func (p *phase) collect(cs []*conn) {
	for _, c := range cs {
		p.t.add(&c.t)
		if c.spans != nil {
			p.spans = append(p.spans, c.spans)
		}
	}
}

// fleetRep runs the fleet's fixed work once on a fresh server: every pen
// joins, then sends fleetRounds more frames.
func (b *bench) fleetRep(p *phase, traced bool) error {
	ch, err := launch(b.opts.server, traced)
	if err != nil {
		return err
	}
	defer ch.kill()
	if err := probe(b.ref, ch, true); err != nil {
		return err
	}
	var s0, s1 scrape
	if traced {
		if s0, err = scrapeMetrics(ch.httpAddr); err != nil {
			return err
		}
	}
	gc0 := ch.gcCycles.Load()
	pr0, err := sampleProc(ch.pid)
	if err != nil {
		return err
	}
	var answered atomic.Int64
	var measuring atomic.Bool
	measuring.Store(true)
	cs := b.newConns(&answered, &measuring, traced)
	perConn := fleetPens / conns
	start := time.Now()
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.pipelined(ch.binAddr, perConn, perConn*(1+fleetRounds), joinWindow, fleetWindow)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	pr1, err := sampleProc(ch.pid)
	if err != nil {
		return err
	}
	if traced {
		if s1, err = scrapeMetrics(ch.httpAddr); err != nil {
			return err
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := ch.stop(); err != nil {
		return err
	}
	p.collect(cs)
	frames := answered.Load()
	p.frames += frames
	p.fps = append(p.fps, float64(frames)/wall.Seconds())
	p.cpuUS = append(p.cpuUS, (pr1.cpu-pr0.cpu).Seconds()*1e6/float64(frames))
	p.hwmMB = append(p.hwmMB, float64(pr1.hwmKB)/1024)
	if traced {
		p.addScrapes(s0, s1, pr0, pr1, ch.gcCycles.Load()-gc0)
	}
	return nil
}

// steady loads one server with the one-in-flight clients of serial or
// http for d after a warm-up, sampling the server's CPU every costWindow
// and stamping every answer.
func (b *bench) steady(p *phase, d time.Duration, traced bool) error {
	ch, err := launch(b.opts.server, traced)
	if err != nil {
		return err
	}
	defer ch.kill()
	if err := probe(b.ref, ch, b.spec.binary); err != nil {
		return err
	}
	var answered atomic.Int64
	var measuring, stop atomic.Bool
	cs := b.newConns(&answered, &measuring, traced)
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.spec.binary {
				errs[i] = c.serial(ch.binAddr, &stop)
			} else {
				errs[i] = c.httpClient(ch.httpAddr, &stop)
			}
			if errs[i] != nil {
				stop.Store(true)
			}
		}()
	}
	var start, end int64
	sampleErr := func() error {
		time.Sleep(warmup)
		var s0 scrape
		if traced {
			if s0, err = scrapeMetrics(ch.httpAddr); err != nil {
				return err
			}
		}
		gc0 := ch.gcCycles.Load()
		first, err := sampleProc(ch.pid)
		if err != nil {
			return err
		}
		prev, prevN := first, answered.Load()
		startN := prevN
		start = b.clk.now()
		measuring.Store(true)
		for i := 0; i < max(1, int(d/costWindow)) && !stop.Load(); i++ {
			time.Sleep(costWindow)
			cur, err := sampleProc(ch.pid)
			if err != nil {
				return err
			}
			n := answered.Load()
			if n > prevN {
				p.cpuUS = append(p.cpuUS, (cur.cpu-prev.cpu).Seconds()*1e6/float64(n-prevN))
			}
			prev, prevN = cur, n
		}
		end = b.clk.now()
		measuring.Store(false)
		p.frames += prevN - startN
		p.hwmMB = append(p.hwmMB, float64(prev.hwmKB)/1024)
		if traced {
			s1, err := scrapeMetrics(ch.httpAddr)
			if err != nil {
				return err
			}
			p.addScrapes(s0, s1, first, prev, ch.gcCycles.Load()-gc0)
		}
		return nil
	}()
	stop.Store(true)
	wg.Wait()
	if err := errors.Join(append(errs, sampleErr)...); err != nil {
		return err
	}
	if len(p.cpuUS) == 0 {
		return errors.New("no frames answered in the timed phase")
	}
	p.gaps = append(p.gaps, answerGaps(cs, start, end)...)
	p.collect(cs)
	return ch.stop()
}

// trainTime is the median time of setupLaunches in-process runs of the
// daemon's training pass, serve.TrainQuickModel.
func trainTime() (float64, error) {
	var ts []float64
	for i := 0; i < setupLaunches; i++ {
		start := time.Now()
		if _, _, err := serve.TrainQuickModel(trainSeed, 0); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// answerGaps is the interval between consecutive answers of each
// connection in [start, end), in seconds.
func answerGaps(cs []*conn, start, end int64) []float64 {
	var gaps []float64
	for _, c := range cs {
		for i := 1; i < len(c.t.doneNS); i++ {
			if t := c.t.doneNS[i-1]; t >= start && c.t.doneNS[i] < end {
				gaps = append(gaps, float64(c.t.doneNS[i]-t)/1e9)
			}
		}
	}
	return gaps
}

// selfCPU is this process's user + system CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// echoRTT is the median round trip of a 22-byte message over a stdlib TCP
// loopback echo: the host's own floor for a serial request.
func echoRTT() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer func() { _ = ln.Close() }()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		if c.SetDeadline(time.Now().Add(connTimeout)) == nil {
			_, _ = io.Copy(c, c)
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	if err := c.SetDeadline(time.Now().Add(connTimeout)); err != nil {
		_ = c.Close()
		return 0, err
	}
	const warm, n = 200, 2000
	var buf [particle.FrameLen]byte
	rtts := make([]float64, 0, n)
	for i := 0; i < warm+n; i++ {
		start := time.Now()
		if _, err := c.Write(buf[:]); err != nil {
			_ = c.Close()
			return 0, err
		}
		if _, err := io.ReadFull(c, buf[:]); err != nil {
			_ = c.Close()
			return 0, err
		}
		if i >= warm {
			rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	_ = c.Close()
	<-done
	return median(rtts), nil
}

// commitOf reads the VCS revision the go tool stamped into the binary, or
// "unknown" when it was built outside a git checkout.
func commitOf(bin string) string {
	info, err := buildinfo.ReadFile(bin)
	if err != nil {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}
