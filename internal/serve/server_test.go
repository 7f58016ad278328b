package serve

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/fuzzy"
	"cqm/internal/obs"
	"cqm/internal/particle"
	"cqm/internal/quality"
)

// biasMeasure builds a two-input (one cue + class) quality FIS with one
// wide rule whose consequent is the constant bias: every finite cue scores
// exactly bias, and an extreme cue underflows every membership function
// into the ε state.
func biasMeasure(t testing.TB, bias float64) *core.Measure {
	t.Helper()
	sys, err := fuzzy.NewTSK(2, []fuzzy.Rule{{
		Antecedent: []fuzzy.Gaussian{{Mu: 0.5, Sigma: 10}, {Mu: 0, Sigma: 10}},
		Coeffs:     []float64{0, 0, bias},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return core.MeasureFromSystem(sys)
}

// biasServer starts a server over a constant-bias model.
func biasServer(t testing.TB, bias float64, cfg Config) *Server {
	t.Helper()
	cfg.Handle = ckpt.NewHandle(biasMeasure(t, bias))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drainOnCleanup(t, s)
	return s
}

// drainTimeout bounds the drain that ends a test. A lost answer leaves
// an admitted request in flight forever, and an unbounded Drain would
// then stall the package until go test's own timeout.
const drainTimeout = 30 * time.Second

// drainOnCleanup drains s when the test ends. If the drain has not
// returned within drainTimeout, the test fails with the accounting
// counters, whose Admitted then exceeds Scored + AdmittedRejects.
func drainOnCleanup(t testing.TB, s *Server) {
	t.Helper()
	t.Cleanup(func() {
		done := make(chan struct{})
		go func() {
			s.Drain()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(drainTimeout):
			st := s.Stats()
			t.Errorf("Drain did not return within %v: admitted %d, scored %d + admitted rejects %d (%+v)",
				drainTimeout, st.Admitted, st.Scored(), st.AdmittedRejects(), st)
		}
	})
}

// penRequest is a minimal valid one-cue request from the given pen.
func penRequest(pen int, seq uint16, cue float64) Request {
	return Request{Node: PenNode(pen), Seq: seq, Cues: []float64{cue}, ClassID: 1}
}

// waitUntil spins until cond holds; test-only synchronization with the
// shard and connection goroutines.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNewValidatesConfig(t *testing.T) {
	handle := ckpt.NewHandle(nil)
	bad := []Config{
		{},                                    // no handle
		{Handle: handle, Shards: -1},          // bad shard count
		{Handle: handle, QueueDepth: -1},      // bad queue depth
		{Handle: handle, BatchSize: -2},       // bad batch size
		{Handle: handle, Threshold: 1.5},      // threshold outside [0,1]
		{Handle: handle, Threshold: -0.00001}, // threshold outside [0,1]
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSubmitValidatesRequest(t *testing.T) {
	s := biasServer(t, 0.75, Config{})
	if _, err := s.Submit(Request{Node: PenNode(1)}); !errors.Is(err, ErrCueCount) {
		t.Errorf("no cues: err = %v, want %v", err, ErrCueCount)
	}
	_, invalid := s.Submit(Request{Node: PenNode(1), Cues: []float64{math.Inf(1)}})
	if !errors.Is(invalid, ErrCueValue) {
		t.Errorf("inf cue: err = %v, want %v", invalid, ErrCueValue)
	}
	// Every code sent on the wire survives code → error → code; a
	// validation error stands for RejectProtocol.
	for code := RejectOverloaded; code <= RejectShed; code++ {
		err := errForReject(code)
		if code == RejectProtocol {
			err = invalid
		}
		if got := rejectCodeFor(err); got != code {
			t.Errorf("%v → %v → %v", code, err, got)
		}
	}
}

func TestSubmitDecisions(t *testing.T) {
	s := biasServer(t, 0.75, Config{Threshold: 0.5, Shards: 2})

	out, err := s.Submit(penRequest(1, 1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusAccepted || math.Abs(out.Q-0.75) > 1e-12 {
		t.Errorf("q>threshold: out = %+v, want accepted q=0.75", out)
	}

	// ε: a cue so far from every rule center that all memberships
	// underflow to zero.
	out, err = s.Submit(penRequest(2, 2, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusEpsilon {
		t.Errorf("extreme cue: out = %+v, want ε", out)
	}

	low := biasServer(t, 0.25, Config{Threshold: 0.5})
	out, err = low.Submit(penRequest(3, 3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusDiscarded || math.Abs(out.Q-0.25) > 1e-12 {
		t.Errorf("q<=threshold: out = %+v, want discarded q=0.25", out)
	}

	stats := s.Stats()
	if stats.Admitted != 2 || stats.Accepted != 1 || stats.Epsilon != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSubmitNoModel(t *testing.T) {
	s, err := New(Config{Handle: ckpt.NewHandle(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	if _, err := s.Submit(penRequest(1, 1, 0.5)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want %v", err, ErrUnavailable)
	}
	stats := s.Stats()
	if stats.Admitted != 1 || stats.RejectedUnavailable != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Admitted != stats.Scored()+stats.RejectedUnavailable+stats.RejectedInternal {
		t.Errorf("accounting violated: %+v", stats)
	}
}

func TestOverloadBackpressure(t *testing.T) {
	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	s := biasServer(t, 0.75, Config{
		Shards:     1,
		QueueDepth: 1,
		BatchSize:  1,
		Threshold:  0.5,
		BatchObserver: func(m *core.Measure, outs []Outcome) {
			entered <- struct{}{}
			<-gate
		},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(penRequest(1, 1, 0.5)); err != nil {
			t.Errorf("first submit: %v", err)
		}
	}()
	<-entered // the shard is now busy inside the observer

	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(penRequest(2, 2, 0.5)); err != nil {
			t.Errorf("queued submit: %v", err)
		}
	}()
	waitUntil(t, "second request admitted", func() bool { return s.Stats().Admitted == 2 })

	// Queue depth 1 with the worker occupied: the third submit must be
	// explicitly rejected, not blocked or dropped.
	if _, err := s.Submit(penRequest(3, 3, 0.5)); !errors.Is(err, ErrOverloaded) {
		t.Errorf("overload: err = %v, want %v", err, ErrOverloaded)
	}

	close(gate)
	wg.Wait()
	stats := s.Stats()
	if stats.Admitted != 2 || stats.Scored() != 2 || stats.RejectedOverload != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestDrainAccountsForEveryAdmittedRequest(t *testing.T) {
	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	s := biasServer(t, 0.75, Config{
		Shards:     1,
		QueueDepth: 8,
		BatchSize:  1,
		Threshold:  0.5,
		BatchObserver: func(m *core.Measure, outs []Outcome) {
			entered <- struct{}{}
			<-gate
		},
	})

	var submits sync.WaitGroup
	for i := 0; i < 4; i++ {
		submits.Add(1)
		go func(i int) {
			defer submits.Done()
			if _, err := s.Submit(penRequest(i, uint16(i), 0.5)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	<-entered // one in flight, the rest queued behind the gate
	waitUntil(t, "all four admitted", func() bool { return s.Stats().Admitted == 4 })

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitUntil(t, "draining flag", s.Draining)

	// Admissions during drain are refused explicitly.
	if _, err := s.Submit(penRequest(9, 9, 0.5)); !errors.Is(err, ErrDraining) {
		t.Errorf("during drain: err = %v, want %v", err, ErrDraining)
	}

	close(gate)
	submits.Wait()
	<-drained

	// The invariant the drain protocol guarantees: everything admitted was
	// answered — scored or explicitly rejected, never silently dropped.
	stats := s.Stats()
	if stats.Admitted != 4 {
		t.Fatalf("admitted = %d, want 4", stats.Admitted)
	}
	if got := stats.Scored() + stats.RejectedUnavailable + stats.RejectedInternal; got != stats.Admitted {
		t.Errorf("admitted %d but answered %d: %+v", stats.Admitted, got, stats)
	}
	if stats.RejectedDraining != 1 {
		t.Errorf("draining rejections = %d, want 1", stats.RejectedDraining)
	}

	// After drain: still refusing, still idempotent.
	if _, err := s.Submit(penRequest(10, 10, 0.5)); !errors.Is(err, ErrDraining) {
		t.Errorf("after drain: err = %v, want %v", err, ErrDraining)
	}
	s.Drain()
}

func TestShardBatchFolding(t *testing.T) {
	entered := make(chan struct{}, 64)
	gate := make(chan struct{})
	var once sync.Once
	s := biasServer(t, 0.75, Config{
		Shards:     1,
		QueueDepth: 64,
		BatchSize:  32,
		Threshold:  0.5,
		BatchObserver: func(m *core.Measure, outs []Outcome) {
			entered <- struct{}{}
			once.Do(func() { <-gate }) // hold only the first batch
		},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(penRequest(0, 0, 0.5)); err != nil {
			t.Errorf("submit: %v", err)
		}
	}()
	<-entered

	const queued = 8
	for i := 1; i <= queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(penRequest(i, uint16(i), 0.5)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	waitUntil(t, "queue to fill", func() bool { return s.Stats().Admitted == queued+1 })
	close(gate)
	wg.Wait()

	stats := s.Stats()
	if stats.Batches != 2 {
		t.Errorf("batches = %d, want 2 (1 gated + %d folded)", stats.Batches, queued)
	}
	if stats.MaxBatch != queued {
		t.Errorf("max batch = %d, want %d", stats.MaxBatch, queued)
	}
}

func TestServerMetricsAndQuality(t *testing.T) {
	reg := obs.NewRegistry()
	eng := quality.NewEngine(quality.Config{Threshold: 0.5})
	s := biasServer(t, 0.75, Config{Threshold: 0.5, Metrics: reg, Quality: eng})

	for i := 0; i < 5; i++ {
		if _, err := s.Submit(penRequest(7, uint16(i), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(MetricAdmitted).Value(); got != 5 {
		t.Errorf("%s = %d, want 5", MetricAdmitted, got)
	}
	if got := reg.Counter(MetricScored, "status", StatusAccepted.String()).Value(); got != 5 {
		t.Errorf("%s{accepted} = %d, want 5", MetricScored, got)
	}
	if got := reg.Counter(MetricBatches).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricBatches, got)
	}

	// The quality engine saw the pen as a source.
	want := PenNode(7).String()
	found := false
	for _, src := range eng.Sources() {
		if src == want {
			found = true
		}
	}
	if !found {
		t.Errorf("quality engine sources %v missing %q", eng.Sources(), want)
	}
}

func TestShardOfMatchesRing(t *testing.T) {
	s := biasServer(t, 0.75, Config{Shards: 4})
	ring, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		node := PenNode(i)
		if got, want := s.ShardOf(node[:]), ring.Shard(node[:]); got != want {
			t.Fatalf("pen %d: ShardOf = %d, ring = %d", i, got, want)
		}
	}
	if s.Shards() != 4 {
		t.Errorf("Shards() = %d", s.Shards())
	}
	if math.Abs(s.Threshold()) > 0 {
		t.Errorf("Threshold() = %v, want 0", s.Threshold())
	}
}

// answerFrame runs one request down the binary front's task path — start,
// the answer on done, the writer's encoder — and returns the frame.
func answerFrame(s *Server, req Request) []byte {
	t := &task{req: req, done: make(chan *task, 1)}
	s.start(t)
	return appendAnswer(nil, <-t.done)
}

func TestSubmitResponseEchoesIdentity(t *testing.T) {
	s := biasServer(t, 0.75, Config{Threshold: 0.5})
	req := Request{Node: particle.NodeIDFromString("pen-echo"), Seq: 41, SentMillis: 99, Cues: []float64{0.5}}
	frame := answerFrame(s, req)
	resp, err := DecodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node != req.Node || resp.Seq != req.Seq || resp.SentMillis != req.SentMillis {
		t.Errorf("echo mismatch: %+v", resp)
	}
	if resp.Rejected || resp.Status != StatusAccepted {
		t.Errorf("resp = %+v, want accepted", resp)
	}
}
