package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqm/internal/adapt"
	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/obs"
)

// decideFunc is a Decider fake: it hands each decision to the func.
type decideFunc func(adapt.Decision)

func (f decideFunc) Decide(d adapt.Decision) { f(d) }

// TestStatsMatchMetrics drives every Stats field on one server — the three
// statuses, each reject reason, a panic recovery and batches — then drains
// it while submitters are still running. Right after Drain returns the
// conservation law must hold, and once the submitters are gone every field
// must equal its cqm_serve_* series.
func TestStatsMatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	good := biasMeasure(t, 0.75)
	handle := ckpt.NewHandle(good)
	// Every clock read advances the clock by step, so a non-zero step gives
	// each request a queue sojourn of one step.
	base := time.Unix(1000, 0)
	var tick, step atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(tick.Add(step.Load()))) }
	var hostile, parking atomic.Bool
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	s, err := New(Config{
		Shards:       1,
		QueueDepth:   8,
		BatchSize:    4,
		Threshold:    0.5,
		Handle:       handle,
		Metrics:      reg,
		Clock:        clock,
		ShedTarget:   time.Millisecond,
		ShedInterval: time.Millisecond,
		Adapt: decideFunc(func(adapt.Decision) {
			if hostile.Load() {
				panic("hostile decision observer")
			}
		}),
		BatchObserver: func(*core.Measure, []Outcome) {
			if parking.CompareAndSwap(true, false) {
				entered <- struct{}{}
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	drainOnCleanup(t, s)

	seq := uint16(0)
	submit := func(cue float64, deadlineMillis uint32, want error) {
		t.Helper()
		seq++
		req := penRequest(1, seq, cue)
		req.DeadlineMillis = deadlineMillis
		if _, err := s.Submit(req); !errors.Is(err, want) {
			t.Fatalf("request %d: err = %v, want %v", seq, err, want)
		}
	}

	submit(0.5, 0, nil) // accepted
	submit(1e9, 0, nil) // ε
	handle.Store(biasMeasure(t, 0.25))
	submit(0.5, 0, nil) // discarded
	handle.Store(nil)
	submit(0.5, 0, ErrUnavailable)
	handle.Store(good)

	step.Store(int64(10 * time.Millisecond))
	submit(0.5, 1, ErrDeadline)
	submit(0.5, 0, nil) // the first late dequeue opens the shedder's grace interval
	submit(0.5, 0, ErrShed)
	step.Store(0)
	submit(0.5, 0, nil)

	hostile.Store(true)
	submit(0.5, 0, ErrInternal)
	hostile.Store(false)

	// Park the shard's combiner in the batch observer, fill the queue
	// behind it, and overflow it.
	parking.Store(true)
	admitted := s.Stats().Admitted
	var parked sync.WaitGroup
	for i := 0; i <= 8; i++ {
		parked.Add(1)
		go func(i int) {
			defer parked.Done()
			if _, err := s.Submit(penRequest(2, uint16(i), 0.5)); err != nil {
				t.Errorf("parked submit %d: %v", i, err)
			}
		}(i)
		if i == 0 {
			<-entered
		}
	}
	waitUntil(t, "queue to fill", func() bool { return s.Stats().Admitted == admitted+9 })
	submit(0.5, 0, ErrOverloaded)
	close(gate)
	parked.Wait()

	// Drain while submitters keep the shard busy; each stops on its first
	// ErrDraining. The queue holds one request of each, so none overloads.
	var load sync.WaitGroup
	for g := 0; g < 8; g++ {
		load.Add(1)
		go func(g int) {
			defer load.Done()
			for i := 0; ; i++ {
				_, err := s.Submit(penRequest(10+g, uint16(i), 0.5))
				switch {
				case errors.Is(err, ErrDraining):
					return
				case err != nil:
					t.Errorf("load submit: %v", err)
					return
				}
			}
		}(g)
	}
	admitted = s.Stats().Admitted
	waitUntil(t, "load to be admitted", func() bool { return s.Stats().Admitted >= admitted+200 })
	s.Drain()
	st := s.Stats()
	if got := st.Scored() + st.AdmittedRejects(); got != st.Admitted {
		t.Errorf("after Drain: admitted %d, answered %d: %+v", st.Admitted, got, st)
	}
	load.Wait()

	st = s.Stats()
	snap := reg.Snapshot()
	series := func(name string, labels ...string) uint64 {
		v, ok := snap.Counter(name, labels...)
		if !ok {
			t.Errorf("no series %s%v", name, labels)
		}
		return uint64(v)
	}
	var sizes int64
	for _, h := range snap.Histograms {
		if h.Name == MetricBatchSize {
			sizes = h.Count
		}
	}
	for _, c := range []struct {
		field    string
		got, exp uint64
	}{
		{"Admitted", st.Admitted, series(MetricAdmitted)},
		{"Accepted", st.Accepted, series(MetricScored, "status", StatusAccepted.String())},
		{"Discarded", st.Discarded, series(MetricScored, "status", StatusDiscarded.String())},
		{"Epsilon", st.Epsilon, series(MetricScored, "status", StatusEpsilon.String())},
		{"RejectedOverload", st.RejectedOverload, series(MetricRejected, "reason", RejectOverloaded.String())},
		{"RejectedDraining", st.RejectedDraining, series(MetricRejected, "reason", RejectDraining.String())},
		{"RejectedUnavailable", st.RejectedUnavailable, series(MetricRejected, "reason", RejectUnavailable.String())},
		{"RejectedInternal", st.RejectedInternal, series(MetricRejected, "reason", RejectInternal.String())},
		{"RejectedDeadline", st.RejectedDeadline, series(MetricRejected, "reason", RejectDeadline.String())},
		{"RejectedShed", st.RejectedShed, series(MetricRejected, "reason", RejectShed.String())},
		{"ShardRestarts", st.ShardRestarts, series(MetricShardRestarts)},
		{"Batches", st.Batches, series(MetricBatches)},
		{"Batches (batch size observations)", st.Batches, uint64(sizes)},
	} {
		if c.got != c.exp {
			t.Errorf("Stats.%s = %d, /metrics has %d", c.field, c.got, c.exp)
		}
		if c.got == 0 {
			t.Errorf("Stats.%s was never driven", c.field)
		}
	}
	// The sequential phase drives these exactly once; the load phase only
	// scores and drains.
	for field, got := range map[string]uint64{
		"Discarded": st.Discarded, "Epsilon": st.Epsilon,
		"RejectedUnavailable": st.RejectedUnavailable, "RejectedInternal": st.RejectedInternal,
		"RejectedDeadline": st.RejectedDeadline, "RejectedShed": st.RejectedShed,
		"ShardRestarts": st.ShardRestarts, "RejectedOverload": st.RejectedOverload,
	} {
		if got != 1 {
			t.Errorf("Stats.%s = %d, want 1", field, got)
		}
	}
	if st.RejectedDraining < 8 || st.MaxBatch != 4 {
		t.Errorf("draining rejects %d (want >= 8), max batch %d (want 4)", st.RejectedDraining, st.MaxBatch)
	}
	if got := st.Scored() + st.AdmittedRejects(); got != st.Admitted {
		t.Errorf("admitted %d, answered %d: %+v", st.Admitted, got, st)
	}
}
