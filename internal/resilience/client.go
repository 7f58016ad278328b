// Package resilience is the hardened binary-protocol client: per-request
// deadlines carried in the frame header, retries with capped exponential
// backoff and decorrelated jitter, a per-endpoint circuit breaker, and
// reconnect-on-reset. Its contract is the client half of the chaos
// invariant: every request handed to Do ends in exactly one of a decoded
// response or a typed error — never a silent loss, never a hang beyond
// the request deadline.
package resilience

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
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
	// errStaleResponse reports a response frame whose node/seq does not
	// match the in-flight request (a desynchronized connection).
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
	// transport failures (default 5; negative disables the breaker).
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
// number of goroutines; each in-flight request holds one pooled connection
// exclusively, so concurrency equals connections.
type Client struct {
	cfg     Config
	breaker breaker

	mu   sync.Mutex
	idle []*wire
	rng  *rand.Rand
	prev time.Duration

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

// wire is one pooled connection.
type wire struct {
	conn net.Conn
}

// New builds a client for cfg.Addr. No connection is made until the first
// Do.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	cl := &Client{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
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

// Close drops every pooled connection. In-flight requests finish on their
// own connections.
func (cl *Client) Close() {
	cl.mu.Lock()
	idle := cl.idle
	cl.idle = nil
	cl.mu.Unlock()
	for _, w := range idle {
		_ = w.conn.Close()
	}
}

// Do executes one scoring request. A request failing serve.Request.Validate
// is returned at once with the validation error: it never reaches the
// wire, counts in no Stats field and leaves the breaker alone. Otherwise
// Do returns either a decoded response (scored outcome or explicit server
// reject) or a typed error — ErrBreakerOpen, ErrDeadline, or ErrExhausted
// wrapping the last transport cause. It never returns a silent zero value
// and never blocks past the request deadline plus one dial timeout.
func (cl *Client) Do(req serve.Request) (serve.Response, error) {
	if err := req.Validate(); err != nil {
		return serve.Response{}, err
	}
	cl.requests.Add(1)
	deadline := time.Now().Add(cl.cfg.RequestTimeout) //lint:ignore nondeterminism request deadlines are wall-clock by definition
	var lastErr error
	for attempt := 0; ; attempt++ {
		budget := time.Until(deadline) //lint:ignore nondeterminism request deadlines are wall-clock by definition
		if budget <= 0 {
			cl.deadline.Add(1)
			if lastErr != nil {
				return serve.Response{}, fmt.Errorf("%w (last attempt: %v)", ErrDeadline, lastErr)
			}
			return serve.Response{}, ErrDeadline
		}
		if !cl.breaker.allow(time.Now()) { //lint:ignore nondeterminism breaker cooldowns track real elapsed time
			cl.met.fastfails.Inc()
			return serve.Response{}, ErrBreakerOpen
		}
		resp, err := cl.attempt(req, deadline, budget)
		if err == nil {
			cl.met.attemptOK.Inc()
			cl.breaker.success()
			if cl.retryableReject(resp, attempt, deadline) {
				continue
			}
			cl.responses.Add(1)
			return resp, nil
		}
		cl.met.attemptErr.Inc()
		if cl.breaker.failure(time.Now()) { //lint:ignore nondeterminism breaker cooldowns track real elapsed time
			cl.met.opens.Inc()
		}
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

// attempt runs one wire exchange: take or dial a connection, send the
// request with its remaining budget in the header, read one response
// frame, and match it to the request. Any error closes the connection (a
// failed connection may hold stale response bytes, so it never returns to
// the pool).
func (cl *Client) attempt(req serve.Request, deadline time.Time, budget time.Duration) (serve.Response, error) {
	req.DeadlineMillis = budgetMillis(budget)
	frame, err := serve.EncodeRequest(req)
	if err != nil {
		return serve.Response{}, err
	}
	w, err := cl.take(deadline)
	if err != nil {
		return serve.Response{}, err
	}
	resp, err := w.exchange(req, frame, deadline)
	if err != nil {
		_ = w.conn.Close()
		return serve.Response{}, err
	}
	cl.put(w)
	return resp, nil
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

// exchange writes one frame and reads the matching response.
func (w *wire) exchange(req serve.Request, frame []byte, deadline time.Time) (serve.Response, error) {
	if err := w.conn.SetWriteDeadline(deadline); err != nil {
		return serve.Response{}, err
	}
	if _, err := w.conn.Write(frame); err != nil {
		return serve.Response{}, err
	}
	if err := w.conn.SetReadDeadline(deadline); err != nil {
		return serve.Response{}, err
	}
	var buf [particle.FrameLen]byte
	if _, err := io.ReadFull(w.conn, buf[:]); err != nil {
		return serve.Response{}, err
	}
	resp, err := serve.DecodeResponse(buf[:])
	if err != nil {
		return serve.Response{}, err
	}
	if resp.Node != req.Node || resp.Seq != req.Seq {
		return serve.Response{}, errStaleResponse
	}
	return resp, nil
}

// take pops a pooled connection or dials a fresh one, bounding the dial by
// both DialTimeout and the request deadline.
func (cl *Client) take(deadline time.Time) (*wire, error) {
	cl.mu.Lock()
	if n := len(cl.idle); n > 0 {
		w := cl.idle[n-1]
		cl.idle = cl.idle[:n-1]
		cl.mu.Unlock()
		return w, nil
	}
	cl.mu.Unlock()
	timeout := cl.cfg.DialTimeout
	if until := time.Until(deadline); until < timeout { //lint:ignore nondeterminism dial timeout is clipped to the wall-clock deadline
		timeout = until
	}
	conn, err := net.DialTimeout("tcp", cl.cfg.Addr, timeout)
	if err != nil {
		return nil, err
	}
	cl.met.dials.Inc()
	return &wire{conn: conn}, nil
}

// put returns a healthy connection to the pool.
func (cl *Client) put(w *wire) {
	cl.mu.Lock()
	cl.idle = append(cl.idle, w)
	cl.mu.Unlock()
}
