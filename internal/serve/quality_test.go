package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/obs"
	"cqm/internal/particle"
	"cqm/internal/quality"
	"cqm/internal/stat"
)

// qualityEngine is the engine configuration both sides of the quality
// feed tests use: a short window and a reference with a short KS stride,
// so that windows wrap and the KS test runs within 16 decisions a pen.
func qualityEngine(reg *obs.Registry) *quality.Engine {
	return quality.NewEngine(quality.Config{
		Window:    8,
		Threshold: 0.45,
		Reference: &quality.Reference{
			Right:       stat.Gaussian{Mu: 0.6, Sigma: 0.1},
			Wrong:       stat.Gaussian{Mu: 0.2, Sigma: 0.1},
			WeightRight: 0.7,
			Threshold:   0.45,
		},
		KS:      quality.KSConfig{MinCount: 4, Every: 4},
		Metrics: reg,
	})
}

// TestTCPQualityFeedMatchesObserve checks the batch feed end to end: after
// a pipelined binary-front run, /quality must equal the report of an
// engine fed the same decisions one Observe at a time, each source named
// by its node's string. It also checks the ordering rule: a batch is
// observed before any of it is answered, so every answer a client can
// hold is already counted by the engine.
func TestTCPQualityFeedMatchesObserve(t *testing.T) {
	m := variedMeasure(t)
	frames := equivalenceFrames()
	for i := range frames {
		// equivalenceFrames cycles through 32 pens whose names fill all 8
		// bytes; give every third pen a short name, zero-padded on the wire.
		if pen := i % 32; pen%3 == 0 {
			frames[i].Node = particle.NodeIDFromString(fmt.Sprintf("p%d", pen))
		}
	}
	const threshold = 0.45

	ref := qualityEngine(nil)
	for i, o := range directOutcomes(t, m, frames, threshold) {
		f := frames[i]
		ref.Observe(quality.Observation{
			Source: f.Node.String(),
			At:     float64(f.SentMillis) / 1000,
			Q:      o.Q,
			HasQ:   o.Status != StatusEpsilon,
		})
	}
	want, err := json.Marshal(ref.Report())
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	engine := qualityEngine(reg)
	observed := reg.Counter(quality.MetricObservations)
	// The decision observer runs just before each answer is sent.
	var answered atomic.Int64
	decided := func(string, float64, []float64, int, Outcome) {
		if a, o := answered.Add(1), observed.Value(); o < a {
			t.Errorf("answering decision %d, but the engine has observed only %d", a, o)
		}
	}
	s, err := New(Config{Shards: 2, Threshold: threshold, Handle: ckpt.NewHandle(m), Quality: engine, DecisionObserver: decided})
	if err != nil {
		t.Fatal(err)
	}
	addr := binaryFront(t, s)
	// Each connection carries the frames of its own half of the pens, in
	// order, so every source sees its decisions in the reference's order.
	const conns = 2
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		var stream []byte
		n := 0
		for i, f := range frames {
			if i%32%conns != c {
				continue
			}
			frame, err := EncodeRequest(f)
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, frame...)
			n++
		}
		conn := dialFront(t, addr)
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := conn.Write(stream); err != nil {
				t.Errorf("conn %d write: %v", c, err)
			}
		}()
		go func() {
			defer wg.Done()
			var buf [particle.FrameLen]byte
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(conn, buf[:]); err != nil {
					t.Errorf("conn %d after %d answers: %v", c, i, err)
					return
				}
				if got, err := DecodeResponse(buf[:]); err != nil || got.Rejected {
					t.Errorf("conn %d: answer %+v, %v", c, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.Drain()
	if st := s.Stats(); st.Admitted != uint64(len(frames)) || st.Scored() != st.Admitted {
		t.Fatalf("admitted %d, scored %d, want %d", st.Admitted, st.Scored(), len(frames))
	}
	got, err := json.Marshal(engine.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/quality after the binary run differs from one Observe per decision:\n got %s\nwant %s", got, want)
	}
}

// settableClock is a fake Config.Clock that stands still until advanced.
type settableClock struct{ offset atomic.Int64 }

var clockBase = time.Unix(1000, 0)

func (c *settableClock) now() time.Time          { return clockBase.Add(time.Duration(c.offset.Load())) }
func (c *settableClock) advance(d time.Duration) { c.offset.Add(int64(d)) }

// exchange writes one request frame and reads its answer.
func exchange(t *testing.T, conn io.ReadWriter, req Request) Response {
	t.Helper()
	frame, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var buf [particle.FrameLen]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTCPAdmissionStampAfterIdleRead pins where the binary front stamps a
// read burst: after the read that delivered it. Ten seconds of idle
// connection pass between two frames with 50 ms budgets; a stamp taken
// before the blocking read would charge the idle time to the second frame
// and expire it.
func TestTCPAdmissionStampAfterIdleRead(t *testing.T) {
	var clock settableClock
	srv := biasServer(t, 0.75, Config{Clock: clock.now})
	conn := dialFront(t, binaryFront(t, srv))

	req := penRequest(1, 1, 0.5)
	req.DeadlineMillis = 50
	if resp := exchange(t, conn, req); resp.Rejected {
		t.Fatalf("first frame rejected: %v", resp.Reject)
	}
	// Let the connection settle and park in its read before time moves.
	time.Sleep(20 * time.Millisecond)
	clock.advance(10 * time.Second)
	req.Seq = 2
	if resp := exchange(t, conn, req); resp.Rejected {
		t.Fatalf("frame after an idle spell rejected: %v", resp.Reject)
	}
	if st := srv.Stats(); st.RejectedDeadline != 0 || st.Scored() != 2 {
		t.Fatalf("stats %+v, want 2 scored and no deadline rejects", st)
	}
}

// TestTCPBurstHonoursDeadlines sends frames pipelined in one write, with
// a clock that moves one second on every read. Each frame's stamp is read
// before its dequeue, so every 100 ms budget expires, while no 1 h budget
// does: frames that share a burst's stamp keep their deadlines.
func TestTCPBurstHonoursDeadlines(t *testing.T) {
	var calls atomic.Int64
	clock := func() time.Time { return clockBase.Add(time.Duration(calls.Add(1)) * time.Second) }
	srv := biasServer(t, 0.75, Config{Clock: clock})
	conn := dialFront(t, binaryFront(t, srv))

	const n = 64
	var stream []byte
	for i := 0; i < n; i++ {
		req := penRequest(i%4, uint16(i), 0.5)
		req.DeadlineMillis = 100
		if i%2 == 1 {
			req.DeadlineMillis = 3600 * 1000
		}
		frame, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	halfClose(t, conn)
	answers := readFrames(t, conn)
	if len(answers) != n {
		t.Fatalf("%d answers, want %d", len(answers), n)
	}
	for _, resp := range answers {
		long := resp.Seq%2 == 1
		switch {
		case long && resp.Rejected:
			t.Errorf("seq %d (1 h budget) rejected: %v", resp.Seq, resp.Reject)
		case !long && (!resp.Rejected || resp.Reject != RejectDeadline):
			t.Errorf("seq %d (100 ms budget): %+v, want a deadline reject", resp.Seq, resp)
		}
	}
	if c := calls.Load(); c >= 3600 {
		t.Fatalf("%d clock reads; the 1 h budgets were not a safe margin", c)
	}
}

// TestQualityTriggerPanicRejectsBatch checks the one way the batch feed can
// panic, a panicking OnTrigger hook: the batch it was folding is rejected
// as internal (none of it was answered yet), the shard keeps serving, and
// the engine still counts the decision that fired the hook.
func TestQualityTriggerPanicRejectsBatch(t *testing.T) {
	reg := obs.NewRegistry()
	engine := quality.NewEngine(quality.Config{
		Threshold: 0.5,
		Metrics:   reg,
		OnTrigger: func(quality.Trigger) { panic("hostile trigger hook") },
	})
	handle := ckpt.NewHandle(biasMeasure(t, 0.9))
	srv, err := New(Config{Threshold: 0.5, Handle: handle, Quality: engine})
	if err != nil {
		t.Fatal(err)
	}
	seq := uint16(0)
	submit := func() error {
		seq++
		_, err := srv.Submit(penRequest(1, seq, 0.5))
		return err
	}
	for i := 0; i < 20; i++ {
		if err := submit(); err != nil {
			t.Fatalf("healthy decision %d: %v", i, err)
		}
	}
	// Quality collapses until Page–Hinkley fires and the hook panics.
	handle.Store(biasMeasure(t, 0.05))
	fired := false
	for i := 0; i < 50 && !fired; i++ {
		switch err := submit(); {
		case errors.Is(err, ErrInternal):
			fired = true
		case err != nil:
			t.Fatalf("collapsed decision %d: %v", i, err)
		}
	}
	if !fired {
		t.Fatal("the trigger hook never fired")
	}
	if err := submit(); err != nil {
		t.Fatalf("decision after the panic: %v", err)
	}
	srv.Drain()
	st := srv.Stats()
	if st.RejectedInternal != 1 || st.ShardRestarts != 1 || st.Admitted != st.Scored()+st.AdmittedRejects() {
		t.Fatalf("stats %+v: want one internal reject, one restart, every admitted frame answered", st)
	}
	if got, want := reg.Counter(quality.MetricObservations).Value(), engine.Report().Observations; got != want || want != int64(st.Admitted) {
		t.Fatalf("observations counter %d, report %d, admitted %d: want all equal", got, want, st.Admitted)
	}
}
