package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cqm/internal/chaos"
	"cqm/internal/resilience"
	"cqm/internal/serve"
)

// chaosProfile is the fixed fault mix of -chaos runs: moderate enough that
// most requests succeed, hostile enough that every failure mode fires —
// resets, burst blackholes, slow-loris dribbling, truncation, corruption,
// and heavy-tailed latency. Only the seed varies, so a BENCH_chaos.json is
// reproducible from its recorded seed.
func chaosProfile(seed int64) chaos.Config {
	return chaos.Config{
		Seed:          seed,
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
	}
}

// chaosTally is one worker's private outcome counts (summed after join, so
// no contention during the run).
type chaosTally struct {
	requests  uint64
	accepted  uint64
	discarded uint64
	epsilon   uint64
	rejected  map[string]uint64
	errDead   uint64
	errOpen   uint64
	errExh    uint64
	latencies []int64
}

// runChaos drives the resilient client fleet through a chaos proxy and
// writes the BENCH_chaos.json baseline. The run doubles as an invariant
// check: it fails if any client request ended without a response or typed
// error, or if the self-served core's drain accounting does not balance.
func runChaos(opts options) error {
	workload, err := serve.NewWorkload(serve.WorkloadConfig{Seed: opts.seed})
	if err != nil {
		return fmt.Errorf("building workload: %w", err)
	}

	target := opts.target
	var self *serve.Server
	var selfLn net.Listener
	if target == "" {
		if self, selfLn, err = selfServe(opts); err != nil {
			return err
		}
		target = selfLn.Addr().String()
	}

	proxy, err := chaos.New(chaosProfile(opts.seed), target, nil)
	if err != nil {
		return fmt.Errorf("starting chaos proxy: %w", err)
	}
	fmt.Fprintf(os.Stderr, "chaos: proxy %s -> %s (seed %d), %d workers over %d clients\n",
		proxy.Addr(), target, opts.seed, opts.chaosWorkers, opts.conns)

	clients := make([]*resilience.Client, opts.conns)
	for i := range clients {
		clients[i] = resilience.New(resilience.Config{
			Addr:             proxy.Addr(),
			Seed:             opts.seed + int64(i),
			RequestTimeout:   2 * time.Second,
			MaxRetries:       4,
			BackoffBase:      5 * time.Millisecond,
			BackoffCap:       250 * time.Millisecond,
			BreakerThreshold: 8,
			BreakerCooldown:  200 * time.Millisecond,
		})
	}

	var penCounter atomic.Uint64
	stopC := make(chan struct{})
	go func() {
		time.Sleep(opts.duration)
		close(stopC)
	}()

	start := time.Now()
	tallies := make([]chaosTally, opts.chaosWorkers)
	var wg sync.WaitGroup
	for w := 0; w < opts.chaosWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chaosWorker(&tallies[w], clients[w%len(clients)], workload, &penCounter, opts.pens, stopC)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for _, cl := range clients {
		cl.Close()
	}
	_ = proxy.Close()
	if self != nil {
		_ = selfLn.Close()
		self.Drain()
	}

	rep, err := buildChaosReport(opts, tallies, clients, proxy, elapsed, self)
	if err != nil {
		return err
	}
	printChaosReport(rep)
	if opts.out != "" {
		//lint:ignore determinism-taint a chaos report is measurement, not reproducible output: wall-clock latency and the run date are its payload
		if err := writeReport(opts.out, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", opts.out)
	}
	return nil
}

// chaosWorker issues requests through one resilient client until stopC
// fires, tallying every terminal outcome.
func chaosWorker(tally *chaosTally, cl *resilience.Client, workload *serve.Workload, penCounter *atomic.Uint64, pens int, stopC <-chan struct{}) {
	tally.rejected = map[string]uint64{}
	for {
		select {
		case <-stopC:
			return
		default:
		}
		n := penCounter.Add(1) - 1
		pen := int(n % uint64(pens))
		round := int(n / uint64(pens))
		item := workload.Item(pen, round)
		req := serve.Request{
			Node:       serve.PenNode(pen),
			Seq:        uint16(n),
			SentMillis: uint32(n),
			ClassID:    item.ClassID,
			Cues:       item.Cues,
		}
		tally.requests++
		t0 := time.Now()
		resp, err := cl.Do(req)
		switch {
		case err == nil && resp.Rejected:
			tally.rejected[resp.Reject.String()]++
		case err == nil:
			tally.latencies = append(tally.latencies, time.Since(t0).Nanoseconds())
			switch resp.Status {
			case serve.StatusAccepted:
				tally.accepted++
			case serve.StatusDiscarded:
				tally.discarded++
			default:
				tally.epsilon++
			}
		case errors.Is(err, resilience.ErrBreakerOpen):
			tally.errOpen++
		case errors.Is(err, resilience.ErrDeadline):
			tally.errDead++
		default:
			tally.errExh++
		}
	}
}

// chaosReport is the JSON shape of BENCH_chaos.json.
type chaosReport struct {
	Date        string             `json:"date"`
	CPU         string             `json:"cpu"`
	Target      string             `json:"target"`
	Seed        int64              `json:"seed"`
	DurationSec float64            `json:"duration_s"`
	Workers     int                `json:"workers"`
	Clients     int                `json:"clients"`
	Requests    uint64             `json:"requests"`
	Responses   uint64             `json:"responses"`
	Accepted    uint64             `json:"accepted"`
	Discarded   uint64             `json:"discarded"`
	Epsilon     uint64             `json:"epsilon"`
	Rejected    uint64             `json:"rejected"`
	RejectedBy  map[string]uint64  `json:"rejected_by,omitempty"`
	Errors      map[string]uint64  `json:"errors"`
	Client      chaosClientReport  `json:"client"`
	Chaos       map[string]uint64  `json:"chaos_decisions"`
	Latency     latencyReport      `json:"latency_ms"`
	Server      *chaosServerReport `json:"server,omitempty"`
}

// chaosClientReport aggregates the resilient clients' transport counters.
type chaosClientReport struct {
	Attempts        uint64 `json:"attempts"`
	TransportErrors uint64 `json:"transport_errors"`
	Retries         uint64 `json:"retries"`
	Dials           uint64 `json:"dials"`
	BreakerOpens    uint64 `json:"breaker_opens"`
}

// chaosServerReport is the self-served core's accounting under fire; the
// run fails unless admitted == scored + rejected_admitted.
type chaosServerReport struct {
	Shards           uint64 `json:"shards"`
	Admitted         uint64 `json:"admitted"`
	Scored           uint64 `json:"scored"`
	RejectedAdmitted uint64 `json:"rejected_admitted"`
	RejectedDeadline uint64 `json:"rejected_deadline"`
	RejectedShed     uint64 `json:"rejected_shed"`
	ShardRestarts    uint64 `json:"shard_restarts"`
}

// buildChaosReport aggregates tallies and enforces both halves of the
// chaos invariant.
func buildChaosReport(opts options, tallies []chaosTally, clients []*resilience.Client, proxy *chaos.Proxy, elapsed time.Duration, self *serve.Server) (*chaosReport, error) {
	rep := &chaosReport{
		Date:        time.Now().UTC().Format("2006-01-02"),
		CPU:         fmt.Sprintf("%s (GOMAXPROCS=%d)", runtime.GOARCH, runtime.GOMAXPROCS(0)),
		Target:      opts.target,
		Seed:        opts.seed,
		DurationSec: elapsed.Seconds(),
		Workers:     opts.chaosWorkers,
		Clients:     opts.conns,
		RejectedBy:  map[string]uint64{},
		Errors:      map[string]uint64{},
		Chaos:       map[string]uint64{},
	}
	if rep.Target == "" {
		rep.Target = "self-serve"
	}
	var latencies []int64
	var errDead, errOpen, errExh uint64
	for i := range tallies {
		t := &tallies[i]
		rep.Requests += t.requests
		rep.Accepted += t.accepted
		rep.Discarded += t.discarded
		rep.Epsilon += t.epsilon
		for code, n := range t.rejected {
			rep.Rejected += n
			rep.RejectedBy[code] += n
		}
		errDead += t.errDead
		errOpen += t.errOpen
		errExh += t.errExh
		latencies = append(latencies, t.latencies...)
	}
	rep.Responses = rep.Accepted + rep.Discarded + rep.Epsilon + rep.Rejected
	rep.Errors["deadline"] = errDead
	rep.Errors["breaker_open"] = errOpen
	rep.Errors["exhausted"] = errExh

	// Client half of the invariant: every request ended in a response or a
	// typed error.
	if got := rep.Responses + errDead + errOpen + errExh; got != rep.Requests {
		return nil, fmt.Errorf("client accounting violated: %d requests, %d terminal outcomes", rep.Requests, got)
	}

	for _, cl := range clients {
		st := cl.Stats()
		rep.Client.Attempts += st.Attempts
		rep.Client.TransportErrors += st.TransportErrors
		rep.Client.Retries += st.Retries
		rep.Client.Dials += st.Dials
		rep.Client.BreakerOpens += st.BreakerOpens
	}
	counts := proxy.Counts()
	for k := chaos.Kind(0); int(k) < len(counts); k++ {
		if counts[k] > 0 {
			rep.Chaos[k.String()] = counts[k]
		}
	}
	rep.Latency = newLatencyReport(latencies)
	if self != nil {
		stats := self.Stats()
		rep.Server = &chaosServerReport{
			Shards:           uint64(self.Shards()),
			Admitted:         stats.Admitted,
			Scored:           stats.Scored(),
			RejectedAdmitted: stats.AdmittedRejects(),
			RejectedDeadline: stats.RejectedDeadline,
			RejectedShed:     stats.RejectedShed,
			ShardRestarts:    stats.ShardRestarts,
		}
		// Server half of the invariant: nothing admitted went unanswered.
		if stats.Scored()+stats.AdmittedRejects() != stats.Admitted {
			return nil, fmt.Errorf("server accounting violated: admitted %d, answered %d",
				stats.Admitted, stats.Scored()+stats.AdmittedRejects())
		}
	}
	return rep, nil
}

// printChaosReport writes the human summary to stderr.
func printChaosReport(rep *chaosReport) {
	fmt.Fprintf(os.Stderr,
		"chaos: %d requests in %.1fs: %d responses (accept %d / discard %d / ε %d / reject %d), errors %d deadline / %d breaker / %d exhausted\n",
		rep.Requests, rep.DurationSec, rep.Responses,
		rep.Accepted, rep.Discarded, rep.Epsilon, rep.Rejected,
		rep.Errors["deadline"], rep.Errors["breaker_open"], rep.Errors["exhausted"])
	fmt.Fprintf(os.Stderr, "client: %d attempts, %d transport errors, %d retries, %d dials, %d breaker opens\n",
		rep.Client.Attempts, rep.Client.TransportErrors, rep.Client.Retries, rep.Client.Dials, rep.Client.BreakerOpens)
	fmt.Fprintf(os.Stderr, "chaos decisions: %v\n", rep.Chaos)
	fmt.Fprintf(os.Stderr, "latency: p50 %.3f ms, p99 %.3f ms, p999 %.3f ms, max %.3f ms\n",
		rep.Latency.P50, rep.Latency.P99, rep.Latency.P999, rep.Latency.Max)
	if rep.Server != nil {
		fmt.Fprintf(os.Stderr, "server: admitted %d = scored %d + rejected %d (deadline %d, shed %d); %d shard restarts\n",
			rep.Server.Admitted, rep.Server.Scored, rep.Server.RejectedAdmitted,
			rep.Server.RejectedDeadline, rep.Server.RejectedShed, rep.Server.ShardRestarts)
	}
}
