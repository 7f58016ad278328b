// Package resilience is the hardened binary-protocol client: one
// pipelined connection per client, per-request deadlines carried in the
// frame header, retries with capped exponential backoff and decorrelated
// jitter, a per-endpoint circuit breaker, and reconnect-on-reset. Its
// contract is the client half of the chaos invariant: every request handed
// to Do ends in exactly one of a decoded response or a typed error — never
// a silent loss, never a hang beyond the request deadline.
package resilience

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cqm/internal/obs"
	"cqm/internal/particle"
	"cqm/internal/serve"
)

// Metric names of the resilient client.
const (
	// MetricAttempts counts wire attempts, by outcome (ok | error).
	MetricAttempts = "cqm_resilience_attempts_total"
	// MetricRetries counts retry sleeps taken.
	MetricRetries = "cqm_resilience_retries_total"
	// MetricBreaker counts breaker transitions and fast-fails, by event.
	MetricBreaker = "cqm_resilience_breaker_total"
	// MetricDials counts fresh connections established.
	MetricDials = "cqm_resilience_dials_total"
)

// Typed terminal errors of Do. Transport-level causes are wrapped, so
// errors.Is works on both the category and the cause.
var (
	// ErrBreakerOpen fails a request fast while the endpoint's circuit
	// breaker is open (or a half-open probe is already in flight).
	ErrBreakerOpen = errors.New("resilience: circuit breaker open")
	// ErrDeadline reports a request whose deadline budget was exhausted
	// before a response arrived.
	ErrDeadline = errors.New("resilience: request deadline exhausted")
	// ErrExhausted reports a request that failed every allowed attempt.
	ErrExhausted = errors.New("resilience: attempts exhausted")
	// ErrInFlight reports a Do whose (node, seq) is already in flight on
	// the client: answers are matched on that pair, so two requests
	// sharing it could not be told apart.
	ErrInFlight = errors.New("resilience: request node/seq already in flight")
	// errStaleResponse reports a response frame whose node/seq matches no
	// request waiting on its connection (a desynchronized connection).
	errStaleResponse = errors.New("resilience: response does not match request")
)

// Config parameterizes a Client. Zero values select the documented
// defaults.
type Config struct {
	// Addr is the server's binary-protocol TCP address.
	Addr string
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// RequestTimeout is the per-request deadline: the whole retry loop —
	// dials, sends, backoff sleeps, reads — must fit inside it. The
	// remaining budget is carried to the server in the frame header so it
	// can reject rather than score an expired request (default 5s).
	RequestTimeout time.Duration
	// MaxRetries is the number of re-attempts after the first (default 3,
	// so 4 attempts; negative = no retries).
	MaxRetries int
	// BackoffBase and BackoffCap bound the decorrelated-jitter backoff
	// (defaults 25ms and 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold opens the breaker after this many consecutive
	// transport failures (default 5; negative disables the breaker). A
	// failed dial is one failure; so is a connection dying with requests
	// in flight, however many it carried. A connection that dies idle is
	// none.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before allowing
	// one half-open probe (default 1s).
	BreakerCooldown time.Duration
	// Seed roots the jitter RNG, making backoff sequences reproducible in
	// tests.
	Seed int64
	// Metrics optionally registers the client's counters. When nil they
	// live in a private registry, so Stats still counts.
	Metrics *obs.Registry
}

// withDefaults fills the documented defaults.
func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// Stats holds the client's counters. Attempts, TransportErrors, Retries,
// Dials, BreakerFastFails and BreakerOpens are read from the counters
// /metrics exports (cqm_resilience_*): clients sharing one Config.Metrics
// registry report their sum, as /metrics does, and only a client with a
// registry of its own balances the Requests partition below by itself.
type Stats struct {
	// Requests is the number of Do calls; Responses of them ended in a
	// decoded response (including explicit rejects).
	Requests  uint64
	Responses uint64
	// DeadlineErrors, BreakerFastFails, and Exhausted partition the typed
	// errors: Requests == Responses + DeadlineErrors + BreakerFastFails +
	// Exhausted once no calls are in flight.
	DeadlineErrors   uint64
	BreakerFastFails uint64
	Exhausted        uint64
	// Attempts counts wire attempts; TransportErrors of them failed.
	Attempts        uint64
	TransportErrors uint64
	// Retries counts backoff sleeps taken; Dials fresh connections;
	// BreakerOpens closed→open (or half-open→open) transitions.
	Retries      uint64
	Dials        uint64
	BreakerOpens uint64
}

// Client is a resilient binary-protocol client. Do may be called from any
// number of goroutines, and every request in flight shares the client's
// one live connection: a writer goroutine writes all the frames queued
// since its last write in one, and a reader goroutine hands each answer
// to the Do waiting on its echoed (node, seq). Any failed attempt — a
// timeout, a write or read error, an undecodable frame, or an answer that
// matches no waiting request — closes the connection, and every request
// still waiting on it retries under its own deadline on a fresh dial.
type Client struct {
	cfg     Config
	breaker breaker

	mu      sync.Mutex
	live    *wire             // the connection new attempts join; nil when none
	dialing *dialing          // the dial in progress; nil when none
	calls   map[callKey]*call // every Do in progress
	rng     *rand.Rand
	prev    time.Duration

	// Facts with no series; the rest are counted in met.
	requests  atomic.Uint64
	responses atomic.Uint64
	deadline  atomic.Uint64
	exhausted atomic.Uint64

	met clientMetrics
}

// clientMetrics holds the pre-resolved counters.
type clientMetrics struct {
	attemptOK  *obs.Counter
	attemptErr *obs.Counter
	retries    *obs.Counter
	opens      *obs.Counter
	fastfails  *obs.Counter
	dials      *obs.Counter
}

// callKey is a request's identity on the wire, echoed in its answer.
type callKey struct {
	node particle.NodeID
	seq  uint16
}

// call is one Do in progress. on and resp are guarded by Client.mu.
type call struct {
	deadline time.Time
	on       *wire // the connection the current attempt waits on; nil otherwise
	resp     serve.Response
	done     chan error // capacity 1: the current attempt's outcome
}

// dialing is a dial that every sender finding no live connection
// shares; err is set before done is closed.
type dialing struct {
	done chan struct{}
	err  error
}

// wire is one connection and its reader and writer goroutines. Its read
// deadline is never later than the deadline of any attempt waiting on it,
// so no timer per request is needed. The fields after kick are guarded by
// Client.mu.
type wire struct {
	conn  net.Conn
	tasks sync.WaitGroup // the reader and the writer
	kick  chan struct{}  // capacity 1: wakes the writer
	out   []byte         // frames queued for the writer
	wake  time.Time      // the read deadline; zero when none
	dead  bool           // failed; no attempt joins it again
}

// New builds a client for cfg.Addr. No connection is made until the first
// Do.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	cl := &Client{
		cfg:   cfg,
		calls: map[callKey]*call{},
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		breaker: breaker{
			threshold: cfg.BreakerThreshold,
			cooldown:  cfg.BreakerCooldown,
		},
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.Help(MetricAttempts, "Resilient client wire attempts, by outcome.")
	reg.Help(MetricRetries, "Resilient client retry sleeps taken.")
	reg.Help(MetricBreaker, "Resilient client breaker events.")
	reg.Help(MetricDials, "Resilient client connections established.")
	cl.met = clientMetrics{
		attemptOK:  reg.Counter(MetricAttempts, "outcome", "ok"),
		attemptErr: reg.Counter(MetricAttempts, "outcome", "error"),
		retries:    reg.Counter(MetricRetries),
		opens:      reg.Counter(MetricBreaker, "event", "open"),
		fastfails:  reg.Counter(MetricBreaker, "event", "fastfail"),
		dials:      reg.Counter(MetricDials),
	}
	return cl
}

// Stats reads the counters.
func (cl *Client) Stats() Stats {
	m := &cl.met
	n := func(c *obs.Counter) uint64 { return uint64(c.Value()) }
	terrs := n(m.attemptErr)
	return Stats{
		Requests:         cl.requests.Load(),
		Responses:        cl.responses.Load(),
		DeadlineErrors:   cl.deadline.Load(),
		BreakerFastFails: n(m.fastfails),
		Exhausted:        cl.exhausted.Load(),
		Attempts:         n(m.attemptOK) + terrs,
		TransportErrors:  terrs,
		Retries:          n(m.retries),
		Dials:            n(m.dials),
		BreakerOpens:     n(m.opens),
	}
}

// Close closes the live connection, first waiting out a dial in progress
// so that it closes the connection that dial makes, and waits for the
// connection's goroutines to exit. Requests still waiting on it end their
// attempt with a transport error and retry on a fresh dial, which Close
// does not wait for; a Do after Close dials afresh too.
func (cl *Client) Close() {
	cl.mu.Lock()
	d := cl.dialing
	cl.mu.Unlock()
	if d != nil {
		<-d.done
	}
	cl.mu.Lock()
	w := cl.live
	cl.mu.Unlock()
	if w != nil {
		cl.kill(w, net.ErrClosed)
		w.tasks.Wait()
	}
}

// Do executes one scoring request. A request failing serve.Request.Validate,
// or whose (node, seq) is already in flight on the client (ErrInFlight),
// is returned at once with that error: it never reaches the wire, counts
// in no Stats field and leaves the breaker alone. Otherwise Do returns
// either a decoded response (scored outcome or explicit server reject) or
// a typed error — ErrBreakerOpen, ErrDeadline, or ErrExhausted wrapping
// the last transport cause. It never returns a silent zero value and
// never blocks past the request deadline plus one dial timeout.
func (cl *Client) Do(req serve.Request) (serve.Response, error) {
	if err := req.Validate(); err != nil {
		return serve.Response{}, err
	}
	key := callKey{req.Node, req.Seq}
	now := time.Now() //lint:ignore nondeterminism request deadlines are wall-clock by definition
	deadline := now.Add(cl.cfg.RequestTimeout)
	cl.mu.Lock()
	if cl.calls[key] != nil {
		cl.mu.Unlock()
		return serve.Response{}, ErrInFlight
	}
	c := &call{deadline: deadline, done: make(chan error, 1)}
	cl.calls[key] = c
	cl.mu.Unlock()
	defer func() {
		cl.mu.Lock()
		delete(cl.calls, key)
		cl.mu.Unlock()
	}()

	cl.requests.Add(1)
	var lastErr error
	for attempt := 0; ; attempt, now = attempt+1, time.Now() { //lint:ignore nondeterminism request deadlines are wall-clock by definition
		budget := deadline.Sub(now)
		if budget <= 0 {
			cl.deadline.Add(1)
			if lastErr != nil {
				return serve.Response{}, fmt.Errorf("%w (last attempt: %v)", ErrDeadline, lastErr)
			}
			return serve.Response{}, ErrDeadline
		}
		if !cl.breaker.allow(now) {
			cl.met.fastfails.Inc()
			return serve.Response{}, ErrBreakerOpen
		}
		// One attempt: queue the request, its remaining budget in the
		// header, and wait until the reader answers it or its connection
		// fails.
		req.DeadlineMillis = budgetMillis(budget)
		err := cl.send(c, req)
		if err == nil {
			err = <-c.done
		}
		if err == nil {
			resp := c.resp
			cl.met.attemptOK.Inc()
			cl.breaker.success()
			if cl.retryableReject(resp, attempt, deadline) {
				continue
			}
			cl.responses.Add(1)
			return resp, nil
		}
		cl.met.attemptErr.Inc()
		lastErr = err
		if attempt >= cl.cfg.MaxRetries {
			cl.exhausted.Add(1)
			return serve.Response{}, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, attempt+1, err)
		}
		cl.sleepBackoff(deadline)
	}
}

// retryableReject reports whether a decoded reject is worth a backoff and
// retry: overload and shed rejects are transient by definition, everything
// else (draining, protocol, deadline, internal, unavailable) is handed to
// the caller as the request's answer. A retry is only taken while budget
// and attempts remain.
func (cl *Client) retryableReject(resp serve.Response, attempt int, deadline time.Time) bool {
	if !resp.Rejected {
		return false
	}
	if resp.Reject != serve.RejectOverloaded && resp.Reject != serve.RejectShed {
		return false
	}
	if attempt >= cl.cfg.MaxRetries || time.Until(deadline) <= 0 { //lint:ignore nondeterminism request deadlines are wall-clock by definition
		return false
	}
	cl.sleepBackoff(deadline)
	return true
}

// sleepBackoff sleeps the next decorrelated-jitter interval, clipped so it
// never sleeps past the request deadline.
func (cl *Client) sleepBackoff(deadline time.Time) {
	cl.mu.Lock()
	base, cap := cl.cfg.BackoffBase, cl.cfg.BackoffCap
	span := 3*cl.prev - base
	if span < 0 {
		span = 0
	}
	d := base + time.Duration(cl.rng.Float64()*float64(span))
	if d > cap {
		d = cap
	}
	cl.prev = d
	cl.mu.Unlock()
	if until := time.Until(deadline); d > until { //lint:ignore nondeterminism backoff is clipped to the wall-clock deadline
		d = until
	}
	cl.met.retries.Inc()
	if d > 0 {
		time.Sleep(d)
	}
}

// budgetMillis converts the remaining budget to the wire's millisecond
// field, rounding up so a sub-millisecond remainder is not sent as the
// reserved 0 ("no deadline").
func budgetMillis(budget time.Duration) uint32 {
	ms := (budget + time.Millisecond - 1) / time.Millisecond
	if ms < 1 {
		ms = 1
	}
	if ms > 1<<31 {
		ms = 1 << 31
	}
	return uint32(ms)
}

// send encodes req onto the live connection's queue and makes c wait on
// it. With no live connection it dials one, or waits for the dial another
// sender started; a failed dial fails every sender that waited for it.
func (cl *Client) send(c *call, req serve.Request) error {
	cl.mu.Lock()
	for cl.live == nil {
		d := cl.dialing
		if d == nil {
			d = &dialing{done: make(chan struct{})}
			cl.dialing = d
			cl.mu.Unlock()
			cl.dial(d, c.deadline)
		} else {
			cl.mu.Unlock()
		}
		<-d.done
		if d.err != nil {
			return d.err
		}
		cl.mu.Lock()
	}
	w := cl.live
	out, err := serve.AppendRequest(w.out, req)
	if err != nil {
		cl.mu.Unlock()
		return err
	}
	w.out = out
	c.on = w
	if w.wake.IsZero() || c.deadline.Before(w.wake) {
		w.wake = c.deadline
		_ = w.conn.SetReadDeadline(w.wake)
	}
	cl.mu.Unlock()
	kick(w)
	return nil
}

// kick wakes w's writer, unless a wake is already pending.
func kick(w *wire) {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// write writes everything queued on w at each wake, in one write, until w
// fails. Each write must end within one request timeout, by when every
// attempt waiting on w has expired.
func (cl *Client) write(w *wire) {
	defer w.tasks.Done()
	for range w.kick {
		// Let the callers the reader just answered queue their next
		// frames first, so that one write carries many.
		runtime.Gosched()
		cl.mu.Lock()
		buf, dead := w.out, w.dead
		w.out = nil
		cl.mu.Unlock()
		if dead {
			return
		}
		if len(buf) == 0 {
			continue
		}
		//lint:ignore nondeterminism write deadlines are wall-clock by definition
		err := w.conn.SetWriteDeadline(time.Now().Add(cl.cfg.RequestTimeout))
		if err == nil {
			_, err = w.conn.Write(buf)
		}
		if err != nil {
			cl.kill(w, err)
			return
		}
	}
}

// dial connects for d, bounding the dial by both DialTimeout and the
// request deadline, and makes the connection live. A failed dial counts
// once against the breaker, however many senders share it.
func (cl *Client) dial(d *dialing, deadline time.Time) {
	timeout := cl.cfg.DialTimeout
	if until := time.Until(deadline); until < timeout { //lint:ignore nondeterminism dial timeout is clipped to the wall-clock deadline
		timeout = until
	}
	conn, err := net.DialTimeout("tcp", cl.cfg.Addr, timeout)
	var w *wire
	if err != nil {
		cl.failure()
	} else {
		cl.met.dials.Inc()
		w = &wire{conn: conn, kick: make(chan struct{}, 1)}
		w.tasks.Add(2)
	}
	cl.mu.Lock()
	cl.live, cl.dialing, d.err = w, nil, err
	cl.mu.Unlock()
	close(d.done)
	if w != nil {
		go cl.read(w)
		go cl.write(w)
	}
}

// failure counts one transport failure against the breaker.
func (cl *Client) failure() {
	if cl.breaker.failure(time.Now()) { //lint:ignore nondeterminism breaker cooldowns track real elapsed time
		cl.met.opens.Inc()
	}
}

// kill fails w on its first failure: it closes the connection, stops its
// writer and ends every attempt waiting on it with err. The breaker counts
// the death once, and only if an attempt was waiting.
func (cl *Client) kill(w *wire, err error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if w.dead {
		return
	}
	w.dead = true
	_ = w.conn.Close()
	kick(w) //lint:ignore lock-discipline kick's send has a default case, so it never blocks
	if cl.live == w {
		cl.live = nil
	}
	counted := false
	for _, c := range cl.calls {
		if c.on == w {
			if !counted {
				cl.failure()
				counted = true
			}
			c.on = nil
			c.done <- err //lint:ignore lock-discipline done has capacity 1 and is empty while its call waits on w, so the send never blocks
		}
	}
}

// read decodes w's answers and hands each to the attempt waiting on w
// for its node/seq, until w fails. A read deadline that passes with no
// waiting attempt expired only moves the deadline on.
func (cl *Client) read(w *wire) {
	defer w.tasks.Done()
	r := bufio.NewReaderSize(w.conn, 16<<10)
	var frame [particle.FrameLen]byte
	for off := 0; ; {
		n, err := io.ReadFull(r, frame[off:])
		off += n
		if errors.Is(err, os.ErrDeadlineExceeded) && cl.rearm(w) {
			continue
		}
		var resp serve.Response
		if err == nil {
			off = 0
			resp, err = serve.DecodeResponse(frame[:])
		}
		var c *call
		if err == nil {
			cl.mu.Lock()
			if c = cl.calls[callKey{resp.Node, resp.Seq}]; c != nil && c.on == w {
				c.on, c.resp = nil, resp
			} else {
				err = errStaleResponse
			}
			cl.mu.Unlock()
		}
		if err != nil {
			cl.kill(w, err)
			return
		}
		c.done <- nil
	}
}

// rearm moves w's read deadline to the earliest deadline of the attempts
// waiting on it, or clears it when none waits. It reports false when that
// deadline has already passed.
func (cl *Client) rearm(w *wire) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var next time.Time
	for _, c := range cl.calls {
		if c.on == w && (next.IsZero() || c.deadline.Before(next)) {
			next = c.deadline
		}
	}
	if !next.IsZero() && !time.Now().Before(next) { //lint:ignore nondeterminism request deadlines are wall-clock by definition
		return false
	}
	w.wake = next
	_ = w.conn.SetReadDeadline(next)
	return true
}
