// Command cqmload drives a cqmserve binary front with a simulated pen
// fleet and reports sustained throughput and latency percentiles.
//
// Requests for -pens pen identities go through -conns resilient clients
// (internal/resilience), each pipelining -window requests on one
// connection in a closed loop: each worker issues its next request only
// when its last one has ended. Payloads replay a deterministic workload
// pool with injected faults and classifier errors, so accepted,
// discarded, and ε outcomes all occur at realistic rates. With no
// -target, cqmload trains the quick model stack and serves it in process;
// with -chaos the clients reach the server through a seeded
// fault-injecting proxy (internal/chaos). The run fails unless both
// conservation laws held: every request ended in a response or a typed
// error, and every frame a self-served core admitted was scored or
// explicitly rejected. Without -chaos the clients never retry and the run
// also fails unless every request was answered on its first attempt: on a
// fault-free path a lost frame is a bug, not a fault to recover from.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cqm/internal/chaos"
	"cqm/internal/ckpt"
	"cqm/internal/resilience"
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
	chaos     bool
}

func main() {
	var opts options
	flag.StringVar(&opts.target, "target", "", "binary front address of a running cqmserve (empty = self-serve in process)")
	flag.IntVar(&opts.pens, "pens", 100000, "simulated pen identities")
	flag.DurationVar(&opts.duration, "duration", 30*time.Second, "load duration")
	flag.IntVar(&opts.conns, "conns", 2, "resilient clients, one pipelined connection each")
	flag.IntVar(&opts.window, "window", 0, "in-flight requests per client, closed loop (0 = 512, or 16 with -chaos)")
	flag.Int64Var(&opts.seed, "seed", 1, "workload, training, jitter and chaos seed")
	flag.IntVar(&opts.workers, "workers", 0, "training workers when self-serving (0 = one per CPU)")
	flag.IntVar(&opts.shards, "shards", 0, "self-serve worker shards (0 = GOMAXPROCS)")
	flag.IntVar(&opts.queue, "queue", 4096, "self-serve per-shard queue depth")
	flag.IntVar(&opts.batch, "batch", 256, "self-serve batch size cap")
	flag.Float64Var(&opts.threshold, "threshold", -1, "self-serve threshold (negative = trained)")
	flag.StringVar(&opts.out, "out", "", "write the JSON report here (default BENCH_serve.json, BENCH_chaos.json with -chaos; \"-\" = skip)")
	flag.BoolVar(&opts.chaos, "chaos", false, "run through a seeded fault-injecting proxy")
	flag.Parse()

	switch {
	case opts.out == "-":
		opts.out = ""
	case opts.out == "" && opts.chaos:
		opts.out = "BENCH_chaos.json"
	case opts.out == "":
		opts.out = "BENCH_serve.json"
	}
	if err := run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "cqmload: %v\n", err)
		os.Exit(1)
	}
}

// run loads the target for opts.duration and writes the report; it fails
// unless both conservation laws held.
func run(opts options) error {
	if opts.window == 0 {
		opts.window = 512
		if opts.chaos {
			opts.window = 16
		}
	}
	switch {
	case opts.pens < 1:
		return fmt.Errorf("-pens must be positive")
	case opts.window < 1 || opts.window > 1<<16:
		return fmt.Errorf("-window must be in 1..65536")
	case opts.conns < 1:
		return fmt.Errorf("-conns must be positive")
	}
	workload, err := serve.NewWorkload(serve.WorkloadConfig{Seed: opts.seed})
	if err != nil {
		return fmt.Errorf("building workload: %w", err)
	}
	f := &fleet{}
	err = f.start(opts)
	if err == nil {
		fmt.Fprintf(os.Stderr, "load: %d pooled items, %d pens, %d clients x window %d -> %s\n",
			workload.Len(), opts.pens, opts.conns, opts.window, f.addr)
		f.load(opts, workload)
	}
	f.stop()
	if err != nil {
		return err
	}
	rep, err := newReport(opts, f)
	if err != nil {
		return err
	}
	rep.print()
	if opts.out == "" {
		return nil
	}
	//lint:ignore determinism-taint a load report is measurement, not reproducible output: wall-clock latency and the run date are its payload
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	//lint:ignore determinism-taint the report's bytes are measurement, as above
	if err := ckpt.AtomicWriteFile(opts.out, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "report written to %s\n", opts.out)
	return nil
}

// fleet is one run: the self-served core and its listener (without
// -target), the chaos proxy (with -chaos), the clients, and what they
// tallied.
type fleet struct {
	self    *serve.Server
	ln      net.Listener
	served  chan error
	proxy   *chaos.Proxy
	clients []*resilience.Client
	addr    string // the clients' target

	tally   tally
	cursor  uint64 // requests issued: the global pen cursor
	elapsed time.Duration
}

// start starts the fleet's parts; stop undoes whatever start got to.
func (f *fleet) start(opts options) error {
	f.addr = opts.target
	if f.addr == "" {
		if err := f.selfServe(opts); err != nil {
			return err
		}
	}
	// Without -chaos every frame is sent once and every answer, a reject
	// included, is reported as it came.
	cfg := resilience.Config{MaxRetries: -1}
	if opts.chaos {
		// The fixed fault mix of -chaos runs: moderate enough that most
		// requests succeed, hostile enough that every failure mode fires.
		// Only the seed varies, so a BENCH_chaos.json is reproducible
		// from its recorded seed.
		var err error
		f.proxy, err = chaos.New(chaos.Config{
			Seed:          opts.seed,
			ResetProb:     0.02,
			BlackholeRate: 0.05,
			TruncateProb:  0.01,
			CorruptProb:   0.01,
			DribbleProb:   0.02,
			DelayProb:     0.2,
			DelayBase:     time.Millisecond,
			DelayMax:      20 * time.Millisecond,
			DribbleDelay:  time.Millisecond,
			IdleTimeout:   2 * time.Second,
		}, f.addr, nil)
		if err != nil {
			return fmt.Errorf("starting chaos proxy: %w", err)
		}
		fmt.Fprintf(os.Stderr, "chaos: proxy %s -> %s (seed %d)\n", f.proxy.Addr(), f.addr, opts.seed)
		f.addr = f.proxy.Addr()
		cfg = resilience.Config{
			RequestTimeout:   2 * time.Second,
			MaxRetries:       4,
			BackoffBase:      5 * time.Millisecond,
			BackoffCap:       250 * time.Millisecond,
			BreakerThreshold: 8,
			BreakerCooldown:  200 * time.Millisecond,
		}
	}
	cfg.Addr = f.addr
	for i := 0; i < opts.conns; i++ {
		cfg.Seed = opts.seed + int64(i)
		f.clients = append(f.clients, resilience.New(cfg))
	}
	return nil
}

// stop closes the clients, proxy and listener, then drains the core, so
// the report reads settled counters and no goroutine outlives run.
func (f *fleet) stop() {
	for _, cl := range f.clients {
		cl.Close()
	}
	if f.proxy != nil {
		_ = f.proxy.Close()
	}
	if f.ln != nil {
		_ = f.ln.Close()
		<-f.served
		f.self.Drain()
	}
}

// selfServe trains the quick stack and serves it on a loopback listener.
func (f *fleet) selfServe(opts options) error {
	shards := opts.shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "self-serve: training quick model (seed %d)\n", opts.seed)
	m, trained, err := serve.TrainQuickModel(opts.seed, opts.workers)
	if err != nil {
		return fmt.Errorf("training model: %w", err)
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
	if f.self, err = serve.New(cfg); err != nil {
		return err
	}
	if f.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	f.served = make(chan error, 1)
	go func() { f.served <- f.self.ServeBinary(f.ln) }()
	f.addr = f.ln.Addr().String()
	fmt.Fprintf(os.Stderr, "self-serve: %s (%d shards, threshold %.3f)\n", f.addr, shards, threshold)
	return nil
}

// load runs opts.window workers per client until opts.duration has
// passed. Worker i of a client sends Seq i, so no two of the client's
// requests in flight share a (node, seq).
func (f *fleet) load(opts options, workload *serve.Workload) {
	var cursor atomic.Uint64
	start := time.Now()
	end := start.Add(opts.duration)
	tallies := make([]tally, len(f.clients)*opts.window)
	var wg sync.WaitGroup
	for i := range tallies {
		wg.Add(1)
		go func(t *tally, cl *resilience.Client, seq uint16) {
			defer wg.Done()
			t.rejected = map[string]uint64{}
			for t0 := time.Now(); t0.Before(end); t0 = time.Now() {
				n := cursor.Add(1) - 1
				pen := int(n % uint64(opts.pens))
				item := workload.Item(pen, int(n/uint64(opts.pens)))
				resp, err := cl.Do(serve.Request{
					Node:       serve.PenNode(pen),
					Seq:        seq,
					SentMillis: uint32(n), // truncated global cursor, echoed for debugging
					ClassID:    item.ClassID,
					Cues:       item.Cues,
				})
				t.record(resp, err, time.Since(t0))
			}
		}(&tallies[i], f.clients[i/opts.window], uint16(i%opts.window))
	}
	wg.Wait()
	f.elapsed = time.Since(start)
	f.cursor = cursor.Load()
	f.tally = tally{rejected: map[string]uint64{}}
	for i := range tallies {
		f.tally.add(&tallies[i])
	}
}

// tally counts request outcomes. Each worker keeps its own, summed after
// the run, so the run shares no counter.
type tally struct {
	requests  uint64
	errors    uint64
	status    [serve.StatusEpsilon + 1]uint64
	rejected  map[string]uint64 // by serve.RejectCode.String()
	latencies []int64           // nanoseconds, one per scored response
}

// record tallies one Do outcome and its latency.
func (t *tally) record(resp serve.Response, err error, latency time.Duration) {
	t.requests++
	switch {
	case err != nil:
		t.errors++
	case resp.Rejected:
		t.rejected[resp.Reject.String()]++
	default:
		t.status[resp.Status]++
		t.latencies = append(t.latencies, latency.Nanoseconds())
	}
}

// add folds o into t.
func (t *tally) add(o *tally) {
	t.requests += o.requests
	t.errors += o.errors
	for i, n := range o.status {
		t.status[i] += n
	}
	for k, n := range o.rejected {
		t.rejected[k] += n
	}
	t.latencies = append(t.latencies, o.latencies...)
}

// report is the JSON shape of BENCH_serve.json and BENCH_chaos.json;
// conns and clients, and window and workers, keep the names each file
// had. Only a plain run has sent (one frame per request: it never
// retries); only a -chaos run has chaos_decisions. latency_ms times each
// scored Do, retries included (the raw plain loop also timed rejects).
type report struct {
	Date         string            `json:"date"`
	CPU          string            `json:"cpu"`
	Target       string            `json:"target"`
	Seed         int64             `json:"seed"`
	Pens         int               `json:"pens"`
	DistinctPens uint64            `json:"distinct_pens_scored"`
	Rounds       float64           `json:"fleet_rounds"`
	Conns        int               `json:"conns"`
	Clients      int               `json:"clients"`
	Window       int               `json:"window"`
	Workers      int               `json:"workers"`
	DurationSec  float64           `json:"duration_s"`
	Sent         uint64            `json:"sent,omitempty"`
	Requests     uint64            `json:"requests"`
	Responses    uint64            `json:"responses"`
	Accepted     uint64            `json:"accepted"`
	Discarded    uint64            `json:"discarded"`
	Epsilon      uint64            `json:"epsilon"`
	Rejected     uint64            `json:"rejected"`
	RejectedBy   map[string]uint64 `json:"rejected_by,omitempty"`
	Errors       map[string]uint64 `json:"errors"`
	Throughput   float64           `json:"throughput_fps"`
	Client       map[string]uint64 `json:"client"` // the resilient clients' summed transport counters
	Chaos        map[string]uint64 `json:"chaos_decisions,omitempty"`
	Latency      latencyReport     `json:"latency_ms"`
	Server       map[string]uint64 `json:"server,omitempty"` // the self-served core's drained accounting
}

// latencyReport is the client-observed latency distribution of scored
// responses in milliseconds, retries included.
type latencyReport struct {
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// newReport builds the report of a stopped fleet and enforces both
// conservation laws.
func newReport(opts options, f *fleet) (*report, error) {
	t := &f.tally
	rep := &report{
		Date:         time.Now().UTC().Format("2006-01-02"),
		CPU:          fmt.Sprintf("%s, %d CPUs (GOMAXPROCS=%d)", runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		Target:       cmp.Or(opts.target, "self-serve"),
		Seed:         opts.seed,
		Pens:         opts.pens,
		DistinctPens: min(f.cursor, uint64(opts.pens)),
		Rounds:       float64(f.cursor) / float64(opts.pens),
		Conns:        opts.conns,
		Clients:      opts.conns,
		Window:       opts.window,
		Workers:      opts.conns * opts.window,
		DurationSec:  f.elapsed.Seconds(),
		Requests:     t.requests,
		Accepted:     t.status[serve.StatusAccepted],
		Discarded:    t.status[serve.StatusDiscarded],
		Epsilon:      t.status[serve.StatusEpsilon],
		RejectedBy:   t.rejected,
		Errors:       map[string]uint64{},
		Client:       map[string]uint64{},
		Latency:      newLatencyReport(t.latencies),
	}
	for _, n := range t.rejected {
		rep.Rejected += n
	}
	rep.Responses = rep.Accepted + rep.Discarded + rep.Epsilon + rep.Rejected
	rep.Throughput = float64(rep.Responses) / f.elapsed.Seconds()
	for _, cl := range f.clients {
		st := cl.Stats()
		rep.Errors["deadline"] += st.DeadlineErrors
		rep.Errors["breaker_open"] += st.BreakerFastFails
		rep.Errors["exhausted"] += st.Exhausted
		rep.Client["attempts"] += st.Attempts
		rep.Client["transport_errors"] += st.TransportErrors
		rep.Client["retries"] += st.Retries
		rep.Client["dials"] += st.Dials
		rep.Client["breaker_opens"] += st.BreakerOpens
	}
	// Client law: every request ended in a response or in one of the
	// clients' typed errors, and the workers saw no other error.
	typed := rep.Errors["deadline"] + rep.Errors["breaker_open"] + rep.Errors["exhausted"]
	switch {
	case t.errors != typed || rep.Responses+typed != rep.Requests:
		return nil, fmt.Errorf("client accounting violated: %d requests, %d responses, %d errors (%d typed)",
			rep.Requests, rep.Responses, t.errors, typed)
	// A plain run's lost frame comes first: it can open the breaker so that
	// every later request fast-fails, and then no request is answered.
	case f.proxy == nil && (typed != 0 || rep.Client["transport_errors"] != 0):
		return nil, fmt.Errorf("lost frames: %d requests, %d responses, %d failed attempts",
			rep.Requests, rep.Responses, rep.Client["transport_errors"])
	case rep.Responses == 0:
		return nil, fmt.Errorf("no request was answered (%d requests, errors %v)", rep.Requests, rep.Errors)
	}
	if f.proxy == nil {
		rep.Sent = rep.Client["attempts"]
	} else {
		rep.Chaos = map[string]uint64{}
		for k, n := range f.proxy.Counts() {
			if n > 0 {
				rep.Chaos[chaos.Kind(k).String()] = n
			}
		}
	}
	if f.self != nil {
		st := f.self.Stats()
		rep.Server = map[string]uint64{
			"shards":            uint64(f.self.Shards()),
			"admitted":          st.Admitted,
			"scored":            st.Scored(),
			"rejected_admitted": st.AdmittedRejects(),
			"rejected_deadline": st.RejectedDeadline,
			"rejected_shed":     st.RejectedShed,
			"shard_restarts":    st.ShardRestarts,
			"batches":           st.Batches,
			"max_batch":         st.MaxBatch,
		}
		// Server law: nothing admitted went unanswered.
		if st.Scored()+st.AdmittedRejects() != st.Admitted {
			return nil, fmt.Errorf("server accounting violated: admitted %d, answered %d",
				st.Admitted, st.Scored()+st.AdmittedRejects())
		}
	}
	return rep, nil
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

// print writes the human summary to stderr (stdout stays clean for
// scripting around the JSON artifact).
func (rep *report) print() {
	fmt.Fprintf(os.Stderr, "sustained %.0f frames/s over %.1fs: %d requests, %d responses (accept %d / discard %d / ε %d / reject %d %v), errors %v\nclient %v, latency ms %+v, chaos %v, server %v\n",
		rep.Throughput, rep.DurationSec, rep.Requests, rep.Responses, rep.Accepted, rep.Discarded, rep.Epsilon,
		rep.Rejected, rep.RejectedBy, rep.Errors, rep.Client, rep.Latency, rep.Chaos, rep.Server)
}
