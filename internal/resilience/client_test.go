package resilience

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqm/internal/obs"
	"cqm/internal/particle"
	"cqm/internal/serve"
)

// fakeServer speaks just enough of the binary protocol to script client
// behavior: for the n-th request overall it answers script(n, req), or
// closes the connection without answering when ok is false.
func fakeServer(t *testing.T, script func(n int, req serve.Request) (resp serve.Response, ok bool)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var count atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				r := bufio.NewReader(conn)
				for {
					req, err := serve.ReadRequest(r)
					if err != nil {
						return
					}
					n := int(count.Add(1) - 1)
					resp, ok := script(n, req)
					if !ok {
						return
					}
					resp.Node, resp.Seq, resp.SentMillis = req.Node, req.Seq, req.SentMillis
					frame, err := serve.EncodeResponse(resp)
					if err != nil {
						return
					}
					if _, err := conn.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// testRequest is a minimal valid request.
func testRequest(seq uint16) serve.Request {
	return serve.Request{
		Node: particle.NodeIDFromString("bench"),
		Seq:  seq,
		Cues: []float64{0.5, 0.25},
	}
}

// accepted is the canonical happy-path answer.
func accepted() (serve.Response, bool) {
	return serve.Response{Status: serve.StatusAccepted, Q: 0.75}, true
}

func TestDoSuccessAndPoolReuse(t *testing.T) {
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) {
		if req.DeadlineMillis == 0 {
			t.Error("request arrived without a deadline budget")
		}
		return accepted()
	})
	cl := New(Config{Addr: addr, Seed: 1, Metrics: obs.NewRegistry()})
	defer cl.Close()

	for seq := uint16(0); seq < 3; seq++ {
		resp, err := cl.Do(testRequest(seq))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rejected || resp.Status != serve.StatusAccepted {
			t.Fatalf("unexpected response %+v", resp)
		}
		if resp.Seq != seq {
			t.Fatalf("response seq %d, want %d", resp.Seq, seq)
		}
	}
	st := cl.Stats()
	if st.Dials != 1 {
		t.Fatalf("serial requests dialed %d times, want pooled reuse (1)", st.Dials)
	}
	if st.Requests != 3 || st.Responses != 3 || st.Attempts != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRetryAfterConnectionDrop(t *testing.T) {
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) {
		if n == 0 {
			return serve.Response{}, false // hang up without answering
		}
		return accepted()
	})
	cl := New(Config{Addr: addr, Seed: 2, BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond})
	defer cl.Close()

	resp, err := cl.Do(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != serve.StatusAccepted {
		t.Fatalf("response %+v", resp)
	}
	st := cl.Stats()
	if st.TransportErrors != 1 || st.Retries != 1 || st.Attempts != 2 || st.Dials != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRetryOnOverloadReject(t *testing.T) {
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) {
		switch n {
		case 0:
			return serve.Response{Rejected: true, Reject: serve.RejectOverloaded}, true
		case 1:
			return serve.Response{Rejected: true, Reject: serve.RejectShed}, true
		default:
			return accepted()
		}
	})
	cl := New(Config{Addr: addr, Seed: 3, BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond})
	defer cl.Close()

	resp, err := cl.Do(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rejected {
		t.Fatalf("overload rejects should have been retried away: %+v", resp)
	}
	st := cl.Stats()
	if st.Retries != 2 || st.TransportErrors != 0 || st.Dials != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStatsMatchMetrics(t *testing.T) {
	// The first request is answered; every later one is dropped, so the
	// second request fails twice, opens the breaker and the third fails
	// fast.
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) {
		if n > 0 {
			return serve.Response{}, false
		}
		return accepted()
	})
	reg := obs.NewRegistry()
	cl := New(Config{
		Addr: addr, Seed: 9, MaxRetries: 1, Metrics: reg,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
	})
	defer cl.Close()

	for i, want := range []error{nil, ErrExhausted, ErrBreakerOpen} {
		if _, err := cl.Do(testRequest(uint16(i))); !errors.Is(err, want) {
			t.Fatalf("request %d: err = %v, want %v", i, err, want)
		}
	}
	st := cl.Stats()
	snap := reg.Snapshot()
	series := func(name string, labels ...string) uint64 {
		v, ok := snap.Counter(name, labels...)
		if !ok {
			t.Errorf("no series %s%v", name, labels)
		}
		return uint64(v)
	}
	for _, c := range []struct {
		field    string
		got, exp uint64
	}{
		{"Attempts", st.Attempts, series(MetricAttempts, "outcome", "ok") + series(MetricAttempts, "outcome", "error")},
		{"TransportErrors", st.TransportErrors, series(MetricAttempts, "outcome", "error")},
		{"Retries", st.Retries, series(MetricRetries)},
		{"Dials", st.Dials, series(MetricDials)},
		{"BreakerOpens", st.BreakerOpens, series(MetricBreaker, "event", "open")},
		{"BreakerFastFails", st.BreakerFastFails, series(MetricBreaker, "event", "fastfail")},
	} {
		if c.got != c.exp || c.got == 0 {
			t.Errorf("Stats.%s = %d, /metrics has %d (want equal and non-zero)", c.field, c.got, c.exp)
		}
	}
	if st.Requests != st.Responses+st.DeadlineErrors+st.BreakerFastFails+st.Exhausted {
		t.Fatalf("request accounting violated: %+v", st)
	}
}

func TestTerminalRejectReturnedToCaller(t *testing.T) {
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) {
		return serve.Response{Rejected: true, Reject: serve.RejectDraining}, true
	})
	cl := New(Config{Addr: addr, Seed: 4})
	defer cl.Close()

	resp, err := cl.Do(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Rejected || resp.Reject != serve.RejectDraining {
		t.Fatalf("response %+v, want draining reject", resp)
	}
	if st := cl.Stats(); st.Retries != 0 {
		t.Fatalf("terminal reject retried: %+v", st)
	}
}

func TestDeadlineExhausted(t *testing.T) {
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) {
		time.Sleep(5 * time.Second) // never answer within the budget
		return serve.Response{}, false
	})
	cl := New(Config{Addr: addr, Seed: 5, RequestTimeout: 150 * time.Millisecond, MaxRetries: 3})
	defer cl.Close()

	start := time.Now()
	_, err := cl.Do(testRequest(1))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-bound request took %v", elapsed)
	}
	if st := cl.Stats(); st.DeadlineErrors != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestExhaustedAfterMaxRetries(t *testing.T) {
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) {
		return serve.Response{}, false // always hang up
	})
	cl := New(Config{
		Addr: addr, Seed: 6, MaxRetries: 2,
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
		BreakerThreshold: -1,
	})
	defer cl.Close()

	_, err := cl.Do(testRequest(1))
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	st := cl.Stats()
	if st.Attempts != 3 || st.TransportErrors != 3 || st.Exhausted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBreakerFastFails(t *testing.T) {
	// Nothing listens on this address: every attempt is a dial failure.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	cl := New(Config{
		Addr: addr, Seed: 7, MaxRetries: -1,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
	})
	defer cl.Close()

	for i := 0; i < 2; i++ {
		if _, err := cl.Do(testRequest(1)); !errors.Is(err, ErrExhausted) {
			t.Fatalf("attempt %d: want ErrExhausted, got %v", i, err)
		}
	}
	if _, err := cl.Do(testRequest(1)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	st := cl.Stats()
	if st.BreakerOpens != 1 || st.BreakerFastFails != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The conservation law: every request ended in exactly one bucket.
	if st.Requests != st.Responses+st.DeadlineErrors+st.BreakerFastFails+st.Exhausted {
		t.Fatalf("request accounting violated: %+v", st)
	}
}

func TestInvalidRequestNeverReachesWire(t *testing.T) {
	var served atomic.Int64
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) {
		served.Add(1)
		return accepted()
	})
	const threshold = 2
	cl := New(Config{
		Addr: addr, Seed: 8,
		BreakerThreshold: threshold, BreakerCooldown: time.Hour,
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
	})
	defer cl.Close()

	bad := testRequest(1)
	bad.Cues = []float64{math.NaN()}
	for i := 0; i < threshold; i++ {
		if _, err := cl.Do(bad); !errors.Is(err, serve.ErrCueValue) {
			t.Fatalf("invalid request %d: want %v, got %v", i, serve.ErrCueValue, err)
		}
	}
	if st := cl.Stats(); st != (Stats{}) {
		t.Fatalf("invalid requests were counted: %+v", st)
	}
	resp, err := cl.Do(testRequest(2))
	if err != nil || resp.Rejected || resp.Status != serve.StatusAccepted {
		t.Fatalf("valid request after invalid ones: %+v, %v", resp, err)
	}
	st := cl.Stats()
	if st.Requests != 1 || st.Responses != 1 || st.Attempts != 1 || st.BreakerOpens != 0 || served.Load() != 1 {
		t.Fatalf("stats %+v, served %d", st, served.Load())
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := breaker{threshold: 2, cooldown: 50 * time.Millisecond}
	now := time.Unix(1000, 0)

	if !b.allow(now) {
		t.Fatal("closed breaker must allow")
	}
	if opened := b.failure(now); opened {
		t.Fatal("opened below threshold")
	}
	if opened := b.failure(now); !opened {
		t.Fatal("did not open at threshold")
	}
	if b.allow(now) {
		t.Fatal("open breaker allowed inside cooldown")
	}
	later := now.Add(60 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("cooldown elapsed but no probe granted")
	}
	if b.allow(later) {
		t.Fatal("second concurrent probe granted in half-open")
	}
	// Probe fails: straight back to open, reported as an opening.
	if opened := b.failure(later); !opened {
		t.Fatal("half-open probe failure did not re-open")
	}
	// Next cooldown, probe succeeds: closed again.
	again := later.Add(60 * time.Millisecond)
	if !b.allow(again) {
		t.Fatal("no probe after second cooldown")
	}
	b.success()
	if !b.allow(again) || !b.allow(again) {
		t.Fatal("closed breaker must allow freely after probe success")
	}

	off := breaker{threshold: -1}
	off.success()
	if off.failure(now) || !off.allow(now) {
		t.Fatal("disabled breaker must never interfere")
	}
}

func TestBudgetMillis(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want uint32
	}{
		{time.Nanosecond, 1},
		{time.Millisecond, 1},
		{time.Millisecond + 1, 2},
		{time.Second, 1000},
		{1 << 62, 1 << 31},
	}
	for _, c := range cases {
		if got := budgetMillis(c.in); got != c.want {
			t.Errorf("budgetMillis(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// scriptServer runs handle on each accepted connection, numbered from 0,
// and closes the connection when handle returns.
func scriptServer(t *testing.T, handle func(n int, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				handle(n, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// readBurst reads at least min requests, then every request whose bytes
// have already arrived.
func readBurst(r *bufio.Reader, min int) ([]serve.Request, error) {
	var reqs []serve.Request
	for len(reqs) < min || r.Buffered() > 0 {
		req, err := serve.ReadRequest(r)
		if err != nil {
			return reqs, err
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// answerFrame is the accepted answer to req, echoing its identity.
func answerFrame(t *testing.T, req serve.Request) []byte {
	frame, err := serve.EncodeResponse(serve.Response{
		Node: req.Node, Seq: req.Seq, SentMillis: req.SentMillis,
		Status: serve.StatusAccepted, Q: 0.75,
	})
	if err != nil {
		t.Error(err)
	}
	return frame
}

// answerBursts answers every read burst on conn, in order or reversed,
// until the connection fails.
func answerBursts(t *testing.T, conn net.Conn, first int, reverse bool) {
	r := bufio.NewReader(conn)
	for min := first; ; min = 1 {
		burst, err := readBurst(r, min)
		if err != nil {
			return
		}
		if reverse {
			slices.Reverse(burst)
		}
		var out []byte
		for _, req := range burst {
			out = append(out, answerFrame(t, req)...)
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// doAll runs one Do per request concurrently and checks that each caller
// got the accepted answer to its own request.
func doAll(t *testing.T, cl *Client, reqs []serve.Request) {
	t.Helper()
	var wg sync.WaitGroup
	for _, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cl.Do(req)
			if err != nil {
				t.Errorf("seq %d: %v", req.Seq, err)
				return
			}
			if resp.Node != req.Node || resp.Seq != req.Seq || resp.SentMillis != req.SentMillis || resp.Status != serve.StatusAccepted {
				t.Errorf("seq %d got answer %+v", req.Seq, resp)
			}
		}()
	}
	wg.Wait()
}

// distinctRequests returns n requests with distinct seqs and SentMillis.
func distinctRequests(n int) []serve.Request {
	reqs := make([]serve.Request, n)
	for i := range reqs {
		reqs[i] = testRequest(uint16(i))
		reqs[i].SentMillis = uint32(7*i + 1)
	}
	return reqs
}

func TestPipelinedDoSharesOneConnection(t *testing.T) {
	// The server holds its first answers until all 64 requests are in
	// flight, then answers every read burst in reverse order.
	const n = 64
	addr := scriptServer(t, func(_ int, conn net.Conn) { answerBursts(t, conn, n, true) })
	cl := New(Config{Addr: addr, Seed: 10})
	defer cl.Close()

	doAll(t, cl, distinctRequests(n))
	st := cl.Stats()
	if st.Dials != 1 || st.Requests != n || st.Responses != n || st.Attempts != n {
		t.Fatalf("stats %+v, want %d requests answered over 1 dial", st, n)
	}
}

// dieWithEightInFlight sends 8 concurrent requests that all wait on the
// first connection, which the server reads and then hands to die; the
// second connection answers everything. It returns the client's stats.
func dieWithEightInFlight(t *testing.T, die func(conn net.Conn)) Stats {
	t.Helper()
	const n = 8
	addr := scriptServer(t, func(idx int, conn net.Conn) {
		if idx > 0 {
			answerBursts(t, conn, 1, false)
			return
		}
		if _, err := readBurst(bufio.NewReader(conn), n); err == nil {
			die(conn)
		}
	})
	cl := New(Config{
		Addr: addr, Seed: 11,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond,
	})
	defer cl.Close()

	doAll(t, cl, distinctRequests(n))
	st := cl.Stats()
	if st.Dials != 2 || st.TransportErrors != n || st.Responses != n {
		t.Fatalf("stats %+v, want all %d requests to fail once and succeed on a second dial", st, n)
	}
	return st
}

func TestStaleAnswerFailsConnection(t *testing.T) {
	// An answer matching no request in flight desynchronizes the
	// connection: the client must drop it, although the server keeps it
	// open, and every request on it retries.
	dieWithEightInFlight(t, func(conn net.Conn) {
		stale := testRequest(999)
		stale.Node = particle.NodeIDFromString("ghost")
		if _, err := conn.Write(answerFrame(t, stale)); err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, conn)
	})
}

func TestBreakerCountsConnectionDeathOnce(t *testing.T) {
	// One dropped connection carrying 8 requests is one transport failure
	// for the breaker, below its threshold of 2.
	st := dieWithEightInFlight(t, func(net.Conn) {})
	if st.BreakerOpens != 0 || st.BreakerFastFails != 0 {
		t.Fatalf("one dropped connection opened the breaker: %+v", st)
	}
}

func TestPipelinedDuplicateKeyRejected(t *testing.T) {
	got := make(chan struct{}, 1)
	release := make(chan struct{})
	addr := scriptServer(t, func(_ int, conn net.Conn) {
		r := bufio.NewReader(conn)
		for {
			burst, err := readBurst(r, 1)
			if err != nil {
				return
			}
			select {
			case got <- struct{}{}:
			default:
			}
			<-release
			for _, req := range burst {
				if _, err := conn.Write(answerFrame(t, req)); err != nil {
					return
				}
			}
		}
	})
	cl := New(Config{Addr: addr, Seed: 12})
	defer cl.Close()

	first := make(chan error, 1)
	go func() {
		_, err := cl.Do(testRequest(5))
		first <- err
	}()
	<-got
	before := cl.Stats()
	if _, err := cl.Do(testRequest(5)); !errors.Is(err, ErrInFlight) {
		t.Fatalf("duplicate in-flight key: err = %v, want %v", err, ErrInFlight)
	}
	if st := cl.Stats(); st != before {
		t.Fatalf("duplicate was counted: %+v, before %+v", st, before)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first request: %v", err)
	}
	if _, err := cl.Do(testRequest(5)); err != nil {
		t.Fatalf("key reused after its request ended: %v", err)
	}
	if st := cl.Stats(); st.Requests != 2 || st.Responses != 2 || st.Dials != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPipelinedAnswerSplitAcrossStaleDeadline(t *testing.T) {
	// The connection's read deadline is the first request's; it passes
	// while the second request's answer is half read, which must only
	// move the deadline on, keeping the bytes already read.
	const timeout = 400 * time.Millisecond
	addr := scriptServer(t, func(_ int, conn net.Conn) {
		r := bufio.NewReader(conn)
		for i := 0; i < 2; i++ {
			burst, err := readBurst(r, 1)
			if err != nil {
				return
			}
			frame := answerFrame(t, burst[0])
			if i == 1 {
				if _, err := conn.Write(frame[:10]); err != nil {
					return
				}
				time.Sleep(timeout * 3 / 4)
				frame = frame[10:]
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
		_, _ = io.Copy(io.Discard, conn)
	})
	cl := New(Config{Addr: addr, Seed: 13, RequestTimeout: timeout})
	defer cl.Close()

	if _, err := cl.Do(testRequest(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(timeout / 2)
	resp, err := cl.Do(testRequest(2))
	if err != nil || resp.Seq != 2 {
		t.Fatalf("split answer: %+v, %v", resp, err)
	}
	if st := cl.Stats(); st.Dials != 1 || st.TransportErrors != 0 {
		t.Fatalf("stats %+v, want both answers on one connection", st)
	}
}

// readers counts cl's connection reader goroutines.
func readers(cl *Client) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), fmt.Sprintf("(*Client).read(%p", cl))
}

func TestCloseStopsConnectionGoroutines(t *testing.T) {
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) { return accepted() })
	cl := New(Config{Addr: addr, Seed: 14})
	for seq := uint16(1); seq <= 2; seq++ {
		if _, err := cl.Do(testRequest(seq)); err != nil {
			t.Fatal(err)
		}
		if n := readers(cl); n != 1 {
			t.Fatalf("%d reader goroutines with a live connection, want 1", n)
		}
		cl.Close()
		// Close returns once the reader has run its deferred Done; the
		// goroutine may still be on its way out, so give it up to 1 s.
		n := readers(cl)
		for deadline := time.Now().Add(time.Second); n != 0 && time.Now().Before(deadline); n = readers(cl) {
			time.Sleep(10 * time.Millisecond)
		}
		if n != 0 {
			t.Fatalf("%d reader goroutines after Close, want 0", n)
		}
	}
	if st := cl.Stats(); st.Dials != 2 || st.Responses != 2 {
		t.Fatalf("stats %+v, want a fresh dial after Close", st)
	}
}

func TestCloseWaitsForDialInProgress(t *testing.T) {
	addr := fakeServer(t, func(n int, req serve.Request) (serve.Response, bool) { return accepted() })
	cl := New(Config{Addr: addr, Seed: 15})
	d := &dialing{done: make(chan struct{})}
	cl.dialing = d // a sender has begun this dial
	closed := make(chan struct{})
	go func() {
		cl.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a dial was in progress")
	case <-time.After(50 * time.Millisecond):
	}
	cl.dial(d, time.Now().Add(time.Second))
	<-closed
	if n := readers(cl); n != 0 {
		t.Fatalf("%d reader goroutines after Close, want 0", n)
	}
}
