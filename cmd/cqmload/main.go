// Command cqmload drives a cqmserve binary front with a simulated pen
// fleet and reports sustained throughput and latency percentiles.
//
// The fleet is virtual: requests for -pens distinct pen identities are
// multiplexed over a handful of pipelined connections, each with a bounded
// in-flight window (a closed loop — the next request is issued only when a
// slot frees up, so the harness measures the server, not its own queues).
// Payloads replay a deterministic workload pool recorded from the sensor
// scenario mix with injected faults and classifier errors, so accepted,
// discarded, and ε outcomes all occur at realistic rates.
//
// With no -target, cqmload self-serves: it trains the quick model stack in
// process, starts a loopback cqmserve core, and loads that — one command
// produces serving numbers on any machine. Results are written to
// -out (default BENCH_serve.json) via the crash-safe artifact writer.
//
// With -chaos the harness instead routes a resilient client fleet through
// a seeded fault-injecting proxy (internal/chaos) and writes
// BENCH_chaos.json: throughput and latency under resets, burst blackholes,
// slow-loris dribbling, corruption, and injected delay, plus the end-state
// accounting proving no request was silently lost on either side.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/particle"
	"cqm/internal/serve"
)

type options struct {
	target    string
	pens      int
	duration  time.Duration
	conns     int
	window    int
	seed      int64
	workers   int
	shards    int
	queue     int
	batch     int
	threshold float64
	out       string

	chaos        bool
	chaosWorkers int
}

func main() {
	var opts options
	flag.StringVar(&opts.target, "target", "", "binary front address of a running cqmserve (empty = self-serve in process)")
	flag.IntVar(&opts.pens, "pens", 100000, "simulated pen identities")
	flag.DurationVar(&opts.duration, "duration", 30*time.Second, "load duration")
	flag.IntVar(&opts.conns, "conns", 2, "pipelined connections")
	flag.IntVar(&opts.window, "window", 512, "in-flight requests per connection (closed loop)")
	flag.Int64Var(&opts.seed, "seed", 1, "workload and training seed")
	flag.IntVar(&opts.workers, "workers", 0, "training workers when self-serving (0 = one per CPU)")
	flag.IntVar(&opts.shards, "shards", 0, "self-serve worker shards (0 = GOMAXPROCS)")
	flag.IntVar(&opts.queue, "queue", 4096, "self-serve per-shard queue depth")
	flag.IntVar(&opts.batch, "batch", 256, "self-serve batch size cap")
	flag.Float64Var(&opts.threshold, "threshold", -1, "self-serve threshold (negative = trained)")
	flag.StringVar(&opts.out, "out", "", "write the JSON report here (default BENCH_serve.json, BENCH_chaos.json with -chaos; \"-\" = skip)")
	flag.BoolVar(&opts.chaos, "chaos", false, "run through a seeded fault-injecting proxy with the resilient client fleet")
	flag.IntVar(&opts.chaosWorkers, "chaos-workers", 32, "concurrent requests in -chaos mode")
	flag.Parse()

	switch {
	case opts.out == "-":
		opts.out = ""
	case opts.out == "" && opts.chaos:
		opts.out = "BENCH_chaos.json"
	case opts.out == "":
		opts.out = "BENCH_serve.json"
	}
	runMode := run
	if opts.chaos {
		runMode = runChaos
	}
	if err := runMode(opts); err != nil {
		fmt.Fprintf(os.Stderr, "cqmload: %v\n", err)
		os.Exit(1)
	}
}

// connStats tallies one connection's outcomes.
type connStats struct {
	sent      uint64
	responses uint64
	accepted  uint64
	discarded uint64
	epsilon   uint64
	rejected  [6]uint64 // by RejectCode
	latencies []int64   // nanoseconds, one per response
}

// loadConn is one pipelined connection: a slot ring bounds the in-flight
// window and carries each request's send stamp to the receiver.
type loadConn struct {
	conn      net.Conn
	slots     chan uint16
	sendNanos []atomic.Int64
	stats     connStats
}

func run(opts options) error {
	if opts.pens < 1 {
		return fmt.Errorf("-pens must be positive")
	}
	if opts.window < 1 || opts.window > 1<<16 {
		return fmt.Errorf("-window must be in 1..65536")
	}
	if opts.conns < 1 {
		return fmt.Errorf("-conns must be positive")
	}

	workload, err := serve.NewWorkload(serve.WorkloadConfig{Seed: opts.seed})
	if err != nil {
		return fmt.Errorf("building workload: %w", err)
	}
	fmt.Fprintf(os.Stderr, "workload: %d pooled items, %d pens, %d conns x window %d\n",
		workload.Len(), opts.pens, opts.conns, opts.window)

	target := opts.target
	var self *serve.Server
	var selfLn net.Listener
	if target == "" {
		if self, selfLn, err = selfServe(opts); err != nil {
			return err
		}
		target = selfLn.Addr().String()
		defer func() { _ = selfLn.Close() }()
	}

	// Dial the fleet's connections.
	conns := make([]*loadConn, opts.conns)
	for i := range conns {
		c, err := net.Dial("tcp", target)
		if err != nil {
			return fmt.Errorf("dialing %s: %w", target, err)
		}
		lc := &loadConn{
			conn:      c,
			slots:     make(chan uint16, opts.window),
			sendNanos: make([]atomic.Int64, opts.window),
		}
		for s := 0; s < opts.window; s++ {
			lc.slots <- uint16(s)
		}
		conns[i] = lc
	}

	var penCounter atomic.Uint64 // global pen cursor: wraps through all identities
	stopC := make(chan struct{})
	go func() {
		time.Sleep(opts.duration)
		close(stopC)
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for _, lc := range conns {
		wg.Add(1)
		go func(lc *loadConn) {
			defer wg.Done()
			runConn(lc, workload, &penCounter, opts.pens, stopC)
		}(lc)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report, err := buildReport(opts, conns, elapsed, penCounter.Load(), self)
	if err != nil {
		return err
	}
	printReport(report)

	if self != nil {
		_ = selfLn.Close()
		self.Drain()
	}
	if opts.out != "" {
		//lint:ignore determinism-taint a load report is measurement, not reproducible output: wall-clock latency and the run date are its payload
		if err := writeReport(opts.out, report); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", opts.out)
	}
	return nil
}

// selfServe trains the quick stack and starts a loopback scoring core.
func selfServe(opts options) (*serve.Server, net.Listener, error) {
	shards := opts.shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "self-serve: training quick model (seed %d)\n", opts.seed)
	m, trained, err := serve.TrainQuickModel(opts.seed, opts.workers)
	if err != nil {
		return nil, nil, fmt.Errorf("training model: %w", err)
	}
	threshold := opts.threshold
	if threshold < 0 {
		threshold = trained
	}
	cfg := serve.Config{
		Shards:     shards,
		QueueDepth: opts.queue,
		BatchSize:  opts.batch,
		Threshold:  threshold,
		Handle:     ckpt.NewHandle(m),
	}
	if opts.chaos {
		// Under chaos the core's own defenses are part of what is being
		// measured: shedding on sustained queue delay and a short idle
		// deadline that disconnects dribbling or blackholed peers.
		cfg.ShedTarget = 25 * time.Millisecond
		cfg.IdleTimeout = 2 * time.Second
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go func() { _ = srv.ServeBinary(ln) }()
	fmt.Fprintf(os.Stderr, "self-serve: %s (%d shards, threshold %.3f)\n", ln.Addr(), shards, threshold)
	return srv, ln, nil
}

// runConn drives one connection until stopC fires and every in-flight
// request has been answered.
func runConn(lc *loadConn, workload *serve.Workload, penCounter *atomic.Uint64, pens int, stopC <-chan struct{}) {
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		readResponses(lc)
	}()

	w := bufio.NewWriterSize(lc.conn, 64<<10)
	sendOne := func(slot uint16) bool {
		n := penCounter.Add(1) - 1
		pen := int(n % uint64(pens))
		round := int(n / uint64(pens))
		item := workload.Item(pen, round)
		frame, err := serve.EncodeRequest(serve.Request{
			Node:       serve.PenNode(pen),
			Seq:        slot,
			SentMillis: uint32(n), // truncated global cursor, echoed for debugging
			ClassID:    item.ClassID,
			Cues:       item.Cues,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cqmload: encoding item for pen %d: %v\n", pen, err)
			return false
		}
		lc.sendNanos[slot].Store(time.Now().UnixNano())
		if _, err := w.Write(frame); err != nil {
			fmt.Fprintf(os.Stderr, "cqmload: send: %v\n", err)
			return false
		}
		lc.stats.sent++
		return true
	}

send:
	for {
		select {
		case <-stopC:
			break send
		case slot := <-lc.slots:
			if !sendOne(slot) {
				break send
			}
			// Fold every already-free slot into this write burst before
			// paying a flush.
		fold:
			for {
				select {
				case more := <-lc.slots:
					if !sendOne(more) {
						break send
					}
				default:
					break fold
				}
			}
			if err := w.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "cqmload: flush: %v\n", err)
				break send
			}
		}
	}
	_ = w.Flush()

	// Closed loop: when every slot is back in the ring, every response has
	// arrived. Then hang up cleanly.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if atomic.LoadUint64(&lc.stats.responses) == lc.stats.sent {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if tc, ok := lc.conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	<-readerDone
	_ = lc.conn.Close()
}

// readResponses decodes response frames, computes per-request latency from
// the slot ring, and tallies outcomes. It owns lc.stats' response fields
// until the sender observes responses == sent after the send loop exits.
func readResponses(lc *loadConn) {
	r := bufio.NewReaderSize(lc.conn, 64<<10)
	var frame [particle.FrameLen]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return
		}
		resp, err := serve.DecodeResponse(frame[:])
		if err != nil {
			fmt.Fprintf(os.Stderr, "cqmload: undecodable response: %v\n", err)
			return
		}
		if int(resp.Seq) >= len(lc.sendNanos) {
			// Not one of ours (e.g. a protocol reject) — returning its seq
			// to the slot ring would corrupt the window.
			fmt.Fprintf(os.Stderr, "cqmload: response outside slot window: %+v\n", resp)
			return
		}
		lat := time.Now().UnixNano() - lc.sendNanos[resp.Seq].Load()
		lc.stats.latencies = append(lc.stats.latencies, lat)
		atomic.AddUint64(&lc.stats.responses, 1)
		switch {
		case resp.Rejected:
			lc.stats.rejected[int(resp.Reject)%len(lc.stats.rejected)]++
		case resp.Status == serve.StatusAccepted:
			lc.stats.accepted++
		case resp.Status == serve.StatusDiscarded:
			lc.stats.discarded++
		default:
			lc.stats.epsilon++
		}
		lc.slots <- resp.Seq
	}
}

// report is the JSON shape of BENCH_serve.json.
type report struct {
	Date         string            `json:"date"`
	CPU          string            `json:"cpu"`
	Target       string            `json:"target"`
	Pens         int               `json:"pens"`
	DistinctPens uint64            `json:"distinct_pens_scored"`
	Rounds       float64           `json:"fleet_rounds"`
	Conns        int               `json:"conns"`
	Window       int               `json:"window"`
	DurationSec  float64           `json:"duration_s"`
	Sent         uint64            `json:"sent"`
	Responses    uint64            `json:"responses"`
	Accepted     uint64            `json:"accepted"`
	Discarded    uint64            `json:"discarded"`
	Epsilon      uint64            `json:"epsilon"`
	Rejected     uint64            `json:"rejected"`
	RejectedBy   map[string]uint64 `json:"rejected_by,omitempty"`
	Throughput   float64           `json:"throughput_fps"`
	Latency      latencyReport     `json:"latency_ms"`
	Server       *serverReport     `json:"server,omitempty"`
}

// latencyReport is the client-observed latency distribution in
// milliseconds.
type latencyReport struct {
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// newLatencyReport summarizes latencies in nanoseconds, sorting them in
// place; an empty set reports zeros.
func newLatencyReport(latencies []int64) latencyReport {
	if len(latencies) == 0 {
		return latencyReport{}
	}
	slices.Sort(latencies)
	pct := func(p float64) float64 {
		return float64(latencies[int(p*float64(len(latencies)-1))]) / 1e6
	}
	return latencyReport{P50: pct(0.50), P99: pct(0.99), P999: pct(0.999), Max: pct(1)}
}

// serverReport is the self-served core's accounting, proving the drain
// invariant held for the run.
type serverReport struct {
	Shards   uint64 `json:"shards"`
	Admitted uint64 `json:"admitted"`
	Scored   uint64 `json:"scored"`
	Batches  uint64 `json:"batches"`
	MaxBatch uint64 `json:"max_batch"`
}

// buildReport aggregates the fleet's tallies into the report.
func buildReport(opts options, conns []*loadConn, elapsed time.Duration, cursor uint64, self *serve.Server) (*report, error) {
	rep := &report{
		Date:        time.Now().UTC().Format("2006-01-02"),
		CPU:         fmt.Sprintf("%s (GOMAXPROCS=%d)", runtime.GOARCH, runtime.GOMAXPROCS(0)),
		Target:      opts.target,
		Pens:        opts.pens,
		Conns:       opts.conns,
		Window:      opts.window,
		DurationSec: elapsed.Seconds(),
		RejectedBy:  map[string]uint64{},
	}
	if rep.Target == "" {
		rep.Target = "self-serve"
	}
	var latencies []int64
	for _, lc := range conns {
		rep.Sent += lc.stats.sent
		rep.Responses += lc.stats.responses
		rep.Accepted += lc.stats.accepted
		rep.Discarded += lc.stats.discarded
		rep.Epsilon += lc.stats.epsilon
		for code, n := range lc.stats.rejected {
			if n > 0 {
				rep.Rejected += n
				rep.RejectedBy[serve.RejectCode(code).String()] += n
			}
		}
		latencies = append(latencies, lc.stats.latencies...)
	}
	if rep.Responses != rep.Sent {
		return nil, fmt.Errorf("lost frames: sent %d, received %d responses", rep.Sent, rep.Responses)
	}
	rep.DistinctPens = cursor
	if rep.DistinctPens > uint64(opts.pens) {
		rep.DistinctPens = uint64(opts.pens)
	}
	rep.Rounds = float64(cursor) / float64(opts.pens)
	if elapsed > 0 {
		rep.Throughput = float64(rep.Responses) / elapsed.Seconds()
	}
	rep.Latency = newLatencyReport(latencies)
	if self != nil {
		stats := self.Stats()
		rep.Server = &serverReport{
			Shards:   uint64(self.Shards()),
			Admitted: stats.Admitted,
			Scored:   stats.Scored(),
			Batches:  stats.Batches,
			MaxBatch: stats.MaxBatch,
		}
	}
	return rep, nil
}

// printReport writes the human summary to stderr (stdout stays clean for
// scripting around the JSON artifact).
func printReport(rep *report) {
	fmt.Fprintf(os.Stderr,
		"sustained %.0f frames/s over %.1fs: %d sent, %d responses (accept %d / discard %d / ε %d / reject %d)\n",
		rep.Throughput, rep.DurationSec, rep.Sent, rep.Responses,
		rep.Accepted, rep.Discarded, rep.Epsilon, rep.Rejected)
	fmt.Fprintf(os.Stderr, "fleet: %d pens, %d distinct scored, %.2f rounds\n",
		rep.Pens, rep.DistinctPens, rep.Rounds)
	fmt.Fprintf(os.Stderr, "latency: p50 %.3f ms, p99 %.3f ms, p999 %.3f ms, max %.3f ms\n",
		rep.Latency.P50, rep.Latency.P99, rep.Latency.P999, rep.Latency.Max)
}

// writeReport persists a JSON report (BENCH_serve.json or
// BENCH_chaos.json) crash-safely.
func writeReport(path string, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	if err := ckpt.AtomicWriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}
