package quality

import (
	"runtime"
	"testing"

	"cqm/internal/obs"
)

// mallocs returns the exact number of heap allocations made by runs calls
// of f. It measures as testing.AllocsPerRun does, at GOMAXPROCS(1) from
// the runtime.MemStats.Mallocs delta, but it neither warms f up nor
// divides by runs: AllocsPerRun's integer mean reads 0 for up to runs-1
// allocations, which would hide a source's window growing.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestObserveSteadyStateZeroAlloc guards the //cqm:hotpath contract on
// Engine.Observe: once a source's window is full, and between KS
// strides, folding an observation must not allocate — with or without a
// metrics registry attached (cqmserve runs with one). First-sight, ring
// growth and stride work carry //cqm:coldpath or waivers in the lint
// walk; this test pins the steady state at exactly zero.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"no registry", Config{Window: 32, Threshold: 0.6}},
		{"registry", Config{Window: 32, Threshold: 0.6, Metrics: obs.NewRegistry()}},
	} {
		e := NewEngine(c.cfg)
		for _, o := range streamFor("pen", 100, 1) {
			e.Observe(o)
		}
		if n := len(e.sources["pen"].ring); n != c.cfg.Window {
			t.Fatalf("%s: warm-up left the window at %d samples, want it full at %d", c.name, n, c.cfg.Window)
		}
		o := Observation{Source: "pen", At: 1000, HasQ: true, Q: 0.9}
		if n := mallocs(500, func() {
			o.At++
			e.Observe(o)
		}); n != 0 {
			t.Errorf("%s: 500 steady-state Observes allocate %d times, want 0", c.name, n)
		}
	}
}

// TestSourceGrowthAllocs pins the lifetime allocation count of one
// node-named source: its join (the record, the name string and a ring of
// min(window, ringStart) slots) plus one allocation per doubling of the
// ring up to the window, ⌈log2(window/ringStart)⌉ in all. The source is
// fed past a full window, so a growth after the window fills would show.
func TestSourceGrowthAllocs(t *testing.T) {
	const joinAllocs = 3
	for _, c := range []struct {
		window  int
		growths uint64
	}{
		{1, 0}, {16, 0}, {17, 1}, {64, 2}, {100, 3},
	} {
		e := NewEngine(Config{Window: c.window, Threshold: 0.6})
		// A first source gives the map its first group, so the measured
		// join does not pay for the map's own start.
		e.Observe(Observation{Node: node("warm"), HasQ: true, Q: 0.9})
		id := node("pen-1")
		got := mallocs(1, func() {
			for i := 0; i < 2*c.window+20; i++ {
				e.Observe(Observation{Node: id, At: float64(i), HasQ: i%7 != 0, Q: 0.9})
			}
		})
		if want := joinAllocs + c.growths; got != want {
			t.Errorf("window %d: a source's lifetime allocates %d times, want %d (join %d + %d growths)",
				c.window, got, want, joinAllocs, c.growths)
		}
		if s := e.sources["pen-1"]; len(s.ring) != c.window || cap(s.ring) != c.window {
			t.Errorf("window %d: full ring has len %d, cap %d, want both %d", c.window, len(s.ring), cap(s.ring), c.window)
		}
	}
}

// TestSourceFootprint guards the per-source memory of a fleet: 20,000
// node-named sources that each make 11 decisions, folded through
// ObserveBatch in fleet order, may grow the live heap by at most 1 KiB
// per source. A ring allocated at the full default window (64 samples,
// 1.5 KiB) next to its record fails it.
func TestSourceFootprint(t *testing.T) {
	const sources, rounds, batchLen = 20000, 11, 24
	batch := make([]Observation, 0, batchLen)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	e := NewEngine(Config{Threshold: 0.6, Metrics: obs.NewRegistry()})
	for r := 0; r < rounds; r++ {
		for i := 0; i < sources; i++ {
			o := Observation{At: float64(r), HasQ: true, Q: 0.9}
			o.Node[0] = 'p'
			for k, v := 7, i; k > 0; k, v = k-1, v/10 {
				o.Node[k] = byte('0' + v%10)
			}
			if batch = append(batch, o); len(batch) == batchLen {
				e.ObserveBatch(batch)
				batch = batch[:0]
			}
		}
	}
	e.ObserveBatch(batch)

	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := len(e.Sources()); n != sources {
		t.Fatalf("%d sources tracked, want %d", n, sources)
	}
	perSource := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sources
	t.Logf("live heap per source: %d B", perSource)
	if perSource > 1024 {
		t.Errorf("live heap grew %d B per source, want at most 1024", perSource)
	}
	runtime.KeepAlive(e)
}
