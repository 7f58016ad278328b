package serve

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/core"
)

func TestHardeningConfigValidation(t *testing.T) {
	handle := ckpt.NewHandle(biasMeasure(t, 0.75))
	bad := []Config{
		{Handle: handle, ShedTarget: -time.Millisecond},
		{Handle: handle, ShedInterval: -time.Millisecond},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// A negative IdleTimeout is valid: it disables connection deadlines.
	srv, err := New(Config{Handle: handle, IdleTimeout: -1})
	if err != nil {
		t.Fatalf("negative idle timeout rejected: %v", err)
	}
	srv.Drain()
}

func TestDeadlineExpiredBeforeScoringRejected(t *testing.T) {
	// The first clock read (admission stamp) is T0; every later read —
	// including the shard's dequeue-time check — lands 10s later, far past
	// the request's 100ms budget.
	base := time.Unix(1000, 0)
	var calls atomic.Int64
	clock := func() time.Time {
		if calls.Add(1) == 1 {
			return base
		}
		return base.Add(10 * time.Second)
	}
	srv := biasServer(t, 0.75, Config{Clock: clock})

	req := penRequest(1, 1, 0.5)
	req.DeadlineMillis = 100
	if _, err := srv.Submit(req); !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	stats := srv.Stats()
	if stats.RejectedDeadline != 1 {
		t.Fatalf("RejectedDeadline = %d, want 1", stats.RejectedDeadline)
	}
	// A request without a deadline sails through the same late clock.
	if _, err := srv.Submit(penRequest(1, 2, 0.5)); err != nil {
		t.Fatalf("deadline-free request rejected: %v", err)
	}
	srv.Drain()
	stats = srv.Stats()
	if got := stats.Scored() + stats.AdmittedRejects(); got != stats.Admitted {
		t.Fatalf("invariant violated: admitted %d, answered %d", stats.Admitted, got)
	}
}

func TestShardPanicRecoveryKeepsServing(t *testing.T) {
	// An observer that panics after every batch exercises the batch's panic
	// barrier on each request: the batch is already answered when the panic
	// fires, the barrier counts a recovered batch, and the next request is
	// served as if nothing happened.
	srv := biasServer(t, 0.75, Config{
		BatchObserver: func(m *core.Measure, outs []Outcome) {
			panic("hostile observer")
		},
	})
	const n = 10
	for i := 0; i < n; i++ {
		out, err := srv.Submit(penRequest(i, uint16(i), 0.5))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if out.Status != StatusAccepted {
			t.Fatalf("request %d: %+v", i, out)
		}
	}
	waitUntil(t, "shard restarts recorded", func() bool {
		return srv.Stats().ShardRestarts >= n
	})
	srv.Drain()
	stats := srv.Stats()
	if stats.Scored() != n {
		t.Fatalf("scored %d, want %d", stats.Scored(), n)
	}
	if got := stats.Scored() + stats.AdmittedRejects(); got != stats.Admitted {
		t.Fatalf("invariant violated across panics: admitted %d, answered %d", stats.Admitted, got)
	}
}

func TestAnswerUnansweredSkipsNilledSlots(t *testing.T) {
	// The panic barrier's contract: batch entries are nilled exactly when
	// answered, so recovery must answer only the non-nil remainder — never
	// double-answering, never leaking.
	srv := biasServer(t, 0.75, Config{})
	sh := &shard{srv: srv}
	a := &task{done: make(chan *task, 1)}
	b := &task{done: make(chan *task, 1)}
	srv.inflight.Add(2) // both tasks count as admitted until answered
	sh.batch = []*task{a, nil, b}
	sh.answerUnanswered(RejectInternal)

	for i, tk := range []*task{a, b} {
		select {
		case r := <-tk.done:
			if r.reject != RejectInternal {
				t.Fatalf("task %d rejected with %v, want internal", i, r.reject)
			}
		default:
			t.Fatalf("task %d not answered", i)
		}
	}
	if len(sh.batch) != 0 {
		t.Fatalf("batch not emptied: %d entries", len(sh.batch))
	}
	if got := srv.Stats().RejectedInternal; got != 2 {
		t.Fatalf("RejectedInternal = %d, want 2", got)
	}
	// Idempotent: a second crash answers nothing further.
	sh.answerUnanswered(RejectInternal)
	if got := srv.Stats().RejectedInternal; got != 2 {
		t.Fatalf("double-answered: RejectedInternal = %d", got)
	}
}

func TestCodelControlLaw(t *testing.T) {
	target, interval := 5*time.Millisecond, 100*time.Millisecond
	c := codel{target: target, interval: interval}
	now := time.Unix(0, 0)
	high := 20 * time.Millisecond

	if c.drop(now, time.Millisecond) {
		t.Fatal("dropped below target")
	}
	if c.drop(now, high) {
		t.Fatal("dropped on first above-target observation (no grace)")
	}
	if c.drop(now.Add(interval/2), high) {
		t.Fatal("dropped inside the grace interval")
	}
	if !c.drop(now.Add(interval+time.Millisecond), high) {
		t.Fatal("did not drop after a full above-target interval")
	}
	// Immediately after a drop the next one is scheduled interval/sqrt(2)
	// away — the very next dequeue must pass.
	at := now.Add(interval + 2*time.Millisecond)
	if c.drop(at, high) {
		t.Fatal("dropped before the scheduled cadence")
	}
	// The cadence accelerates: with persistent excursion, drops come at
	// interval/sqrt(count) spacing.
	at = at.Add(time.Duration(float64(interval) / 1.41))
	if !c.drop(at, high) {
		t.Fatal("no drop at the accelerated cadence")
	}
	// Recovery: one below-target sojourn resets the controller entirely.
	if c.drop(at, time.Millisecond) {
		t.Fatal("dropped a below-target task")
	}
	if c.drop(at.Add(interval), high) {
		t.Fatal("dropped without a fresh grace interval after recovery")
	}

	off := codel{}
	if off.drop(now, time.Hour) {
		t.Fatal("disabled controller dropped")
	}
}

func TestCodelHysteresisResumesCadence(t *testing.T) {
	c := codel{target: time.Millisecond, interval: 100 * time.Millisecond}
	now := time.Unix(0, 0)
	high := 50 * time.Millisecond

	// Drive a long dropping episode to build up count.
	c.drop(now, high)                     // first above: grace
	now = now.Add(101 * time.Millisecond) // past grace
	for i := 0; i < 50; i++ {
		if c.drop(now, high) {
			now = now.Add(time.Millisecond)
		} else {
			now = now.Add(5 * time.Millisecond)
		}
	}
	episodes := c.count
	if episodes < 3 {
		t.Fatalf("episode built count %d, want ≥ 3", episodes)
	}
	// Brief recovery, then a new excursion: the count resumes near the old
	// value (count-2), not from 1.
	c.drop(now, 0)
	c.drop(now, high) // grace starts
	now = now.Add(101 * time.Millisecond)
	if !c.drop(now, high) {
		t.Fatal("no drop after re-entry grace")
	}
	if c.count != episodes-2+1 {
		t.Fatalf("re-entry count %d, want %d (hysteresis)", c.count, episodes-2+1)
	}
}
