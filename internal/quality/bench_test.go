package quality

import (
	"fmt"
	"math/rand"
	"testing"

	"cqm/internal/obs"
)

// benchStream pre-builds a deterministic observation stream so the
// benchmark loop measures tracking cost only, not synthesis.
func benchStream(sources, n int) []Observation {
	out := make([]Observation, 0, sources*n)
	for s := 0; s < sources; s++ {
		name := fmt.Sprintf("pen-%d", s)
		for _, o := range streamFor(name, n, int64(s)+5) {
			o.Source = name
			out = append(out, o)
		}
	}
	return out
}

// BenchmarkObserve measures the per-observation tracking overhead on
// the serving hot path: ring update, O(1) window aggregates, and the
// Page–Hinkley step.
func BenchmarkObserve(b *testing.B) {
	stream := benchStream(1, 4096)
	e := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(stream[i%len(stream)])
	}
}

// BenchmarkReport measures full report generation — per-source stats,
// OLS velocity, KS test, alert derivation, health grading — over a
// warm 4-source engine.
func BenchmarkReport(b *testing.B) {
	e := NewEngine(Config{Threshold: 0.6, Reference: testRef()})
	for _, o := range benchStream(4, 512) {
		e.Observe(o)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := e.Report(); rep == nil {
			b.Fatal("nil report")
		}
	}
}

// BenchmarkObserveJoin measures a first-seen Observe — a source joining —
// with 1k or 20k sources already tracked and a metrics registry attached,
// as cqmserve runs it. Each iteration joins one new source and then drops
// it from the map, so the tracked count stays fixed; the map delete is
// small next to the join's allocations.
func BenchmarkObserveJoin(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			e := NewEngine(Config{Threshold: 0.6, Reference: testRef(), Metrics: obs.NewRegistry()})
			for s := 0; s < n; s++ {
				e.Observe(Observation{Source: fmt.Sprintf("pen-%d", s), HasQ: true, Q: 0.9})
			}
			joins := make([]string, 1024)
			for i := range joins {
				joins[i] = fmt.Sprintf("join-%d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := joins[i%len(joins)]
				e.Observe(Observation{Source: name, At: float64(i), HasQ: true, Q: 0.9})
				delete(e.sources, name)
			}
		})
	}
}

// BenchmarkObserveFleet measures the serving shape of the quality feed:
// 20k warm sources, a metrics registry, and a pre-built stream of random
// sources folded in 24-decision batches (about a fleet batch). "batch"
// folds each batch with one ObserveBatch keyed by node id, as the shard
// does; "per-decision" makes one Observe per decision keyed by the name
// string. ns/op is per decision. Every source is warmed to a full window
// first, so the timed loop folds steady-state decisions only and never
// grows a ring; B/op should read 0.
func BenchmarkObserveFleet(b *testing.B) {
	const sources, batch = 20000, 24
	names := make([]string, sources)
	for i := range names {
		names[i] = fmt.Sprintf("p%07d", i)
	}
	rng := rand.New(rand.NewSource(1))
	byNode := make([]Observation, 1<<16)
	byName := make([]Observation, len(byNode))
	for i := range byNode {
		name := names[rng.Intn(sources)]
		byName[i] = Observation{Source: name, At: float64(i), HasQ: true, Q: 0.9}
		byNode[i] = Observation{At: float64(i), HasQ: true, Q: 0.9}
		copy(byNode[i].Node[:], name)
	}
	warm := func() *Engine {
		e := NewEngine(Config{Threshold: 0.6, Metrics: obs.NewRegistry()})
		for round := 0; round < DefaultWindow; round++ {
			for i := range names {
				e.Observe(Observation{Source: names[i], HasQ: true, Q: 0.9})
			}
		}
		return e
	}
	b.Run("batch", func(b *testing.B) {
		e := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			k := i / batch % (len(byNode) / batch) * batch
			e.ObserveBatch(byNode[k : k+batch])
		}
	})
	b.Run("per-decision", func(b *testing.B) {
		e := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Observe(byName[i%len(byName)])
		}
	})
}
