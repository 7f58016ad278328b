package core

import (
	"errors"
	"math"
	"testing"

	"cqm/internal/fuzzy"
	"cqm/internal/obs"
	"cqm/internal/sensor"
)

// kernelClassIDs are the class ids the differential tests score: every
// tabulated id and ids outside the table.
var kernelClassIDs = []int{-1, 0, 1, 2, 3, 4, 7}

// kernelTestMeasure is a hand-built quality FIS over three cues whose
// rule outputs span well past L's domain, so a grid of cues yields both
// clean scores and ε, and cues far from every centre fire no rule.
func kernelTestMeasure(t testing.TB) *Measure {
	t.Helper()
	sys, err := fuzzy.NewTSK(4, []fuzzy.Rule{
		{
			Antecedent: []fuzzy.Gaussian{{Mu: 0, Sigma: 1}, {Mu: 0, Sigma: 1}, {Mu: 0, Sigma: 1}, {Mu: 1, Sigma: 0.8}},
			Coeffs:     []float64{0.1, -0.2, 0.05, 0.3, 0.2},
		},
		{
			Antecedent: []fuzzy.Gaussian{{Mu: 1, Sigma: 0.7}, {Mu: -1, Sigma: 1.2}, {Mu: 0.5, Sigma: 0.9}, {Mu: 2, Sigma: 0.6}},
			Coeffs:     []float64{0.8, 0.3, -0.5, -0.4, 0.9},
		},
		{
			Antecedent: []fuzzy.Gaussian{{Mu: -1, Sigma: 1.5}, {Mu: 1, Sigma: 0.5}, {Mu: 2, Sigma: 1}, {Mu: 3, Sigma: 1.1}},
			Coeffs:     []float64{-1.2, 0.7, 0.9, 0.25, -0.3},
		},
		{
			Antecedent: []fuzzy.Gaussian{{Mu: 2, Sigma: 0.9}, {Mu: 2, Sigma: 0.9}, {Mu: -2, Sigma: 0.9}, {Mu: 0, Sigma: 0.7}},
			Coeffs:     []float64{2.5, -1.5, 1, -0.6, 0.4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return MeasureFromSystem(sys)
}

// referenceScore is the reference the kernel must reproduce: TSK.Eval at
// v_Q = (cues, class), then Normalize, with any error as ε.
func referenceScore(m *Measure, cues []float64, class int) (q float64, ok bool) {
	v := append(append(make([]float64, 0, len(cues)+1), cues...), float64(class))
	raw, err := m.System().Eval(v)
	if err != nil {
		return 0, false
	}
	q, err = Normalize(raw)
	return q, err == nil
}

// kernelOutcomes tallies what a differential run covered.
type kernelOutcomes struct{ clean, epsilon int }

// checkKernel compares the kernel with the reference and with Score at
// one point, bit for bit, and tallies the outcome.
func checkKernel(t testing.TB, m *Measure, cues []float64, class int, tally *kernelOutcomes) {
	t.Helper()
	wantQ, wantOK := referenceScore(m, cues, class)
	gotQ, gotOK := m.k.score(cues, class)
	if gotOK != wantOK || math.Float64bits(gotQ) != math.Float64bits(wantQ) {
		t.Fatalf("kernel(%v, %d) = (%v, %v), reference (%v, %v)", cues, class, gotQ, gotOK, wantQ, wantOK)
	}
	scoreQ, err := m.Score(cues, sensor.Context(class))
	if (err == nil) != wantOK || (err != nil && !IsEpsilon(err)) || math.Float64bits(scoreQ) != math.Float64bits(wantQ) {
		t.Fatalf("Score(%v, %d) = (%v, %v), reference (%v, %v)", cues, class, scoreQ, err, wantQ, wantOK)
	}
	if tally == nil {
		return
	}
	if wantOK {
		tally.clean++
	} else {
		tally.epsilon++
	}
}

// TestKernelMatchesEval: the compiled kernel reproduces TSK.Eval +
// Normalize bit for bit, over every class id in and outside the table,
// clean and ε outputs, no-activation, non-finite cues and a cue vector of
// the wrong length.
func TestKernelMatchesEval(t *testing.T) {
	m := kernelTestMeasure(t)
	var grid kernelOutcomes
	for _, class := range kernelClassIDs {
		for a := -3.0; a <= 3; a += 0.5 {
			for b := -3.0; b <= 3; b += 0.5 {
				for c := -3.0; c <= 3; c += 0.75 {
					checkKernel(t, m, []float64{a, b, c}, class, &grid)
				}
			}
		}
	}
	if grid.clean == 0 || grid.epsilon == 0 {
		t.Fatalf("grid covered %d clean and %d ε scores; want both", grid.clean, grid.epsilon)
	}

	// No rule fires this far from every centre: the reference reports
	// no activation, and both paths answer ε.
	far := []float64{1e6, -1e6, 1e6}
	if _, err := m.System().Eval(append(far[:3:3], 1)); !errors.Is(err, fuzzy.ErrNoActivation) {
		t.Fatalf("far cues: Eval error %v, want no activation", err)
	}
	specials := [][]float64{
		far,
		{math.NaN(), 0, 0},
		{0, math.Inf(1), 0},
		{0, 0, math.Inf(-1)},
		{math.Inf(1), math.Inf(-1), math.NaN()},
		{0.1, 0.2},           // one cue short
		{0.1, 0.2, 0.3, 0.4}, // one cue long
		{},                   // no cues
	}
	for _, cues := range specials {
		for _, class := range kernelClassIDs {
			checkKernel(t, m, cues, class, nil)
			if q, ok := m.k.score(cues, class); ok || q != 0 {
				t.Fatalf("kernel(%v, %d) = (%v, %v), want ε", cues, class, q, ok)
			}
		}
	}

	// A trained model, over the test observations at every class id.
	f := buildFixture(t, 1)
	var trained kernelOutcomes
	for _, o := range f.testObs {
		for _, class := range kernelClassIDs {
			checkKernel(t, f.measure, o.Cues, class, &trained)
		}
	}
	if trained.clean == 0 {
		t.Fatal("trained model scored nothing clean")
	}
}

// TestScoreBatchIntoMatchesScore: batch scoring writes Score's values
// into the caller's buffers, reports a wrong-length cue vector at its
// index as ε, and overwrites stale buffer contents.
func TestScoreBatchIntoMatchesScore(t *testing.T) {
	m := kernelTestMeasure(t)
	batch := make([]Observation, 40)
	for i := range batch {
		x := float64(i)/10 - 2
		batch[i] = Observation{Cues: []float64{x, -x / 2, x * x / 4}, Class: sensor.Context(i % 5)}
	}
	const bad = 17
	batch[bad].Cues = batch[bad].Cues[:2]

	qs, ok := make([]float64, 64), make([]bool, 64)
	for i := range qs {
		qs[i], ok[i] = -1, true // stale contents from an earlier batch
	}
	if err := m.ScoreBatchInto(batch, qs, ok); err != nil {
		t.Fatal(err)
	}
	for i, o := range batch {
		q, err := m.Score(o.Cues, o.Class)
		if ok[i] != (err == nil) || math.Float64bits(qs[i]) != math.Float64bits(q) {
			t.Fatalf("obs %d: batch (%v, %v), Score (%v, %v)", i, qs[i], ok[i], q, err)
		}
		if err != nil && !IsEpsilon(err) {
			t.Fatalf("obs %d: Score error %v is not ε", i, err)
		}
	}
	if ok[bad] {
		t.Fatalf("obs %d has the wrong cue count but scored clean", bad)
	}
	if qs[len(batch)] != -1 || !ok[len(batch)] {
		t.Fatal("ScoreBatchInto wrote past the batch")
	}

	if err := m.ScoreBatchInto(batch, qs[:10], ok); !errors.Is(err, errShortOutputs) {
		t.Fatalf("short qs: %v", err)
	}
	if err := m.ScoreBatchInto(batch, qs, ok[:10]); !errors.Is(err, errShortOutputs) {
		t.Fatalf("short ok: %v", err)
	}
	if err := m.ScoreBatchInto(nil, qs, ok); !errors.Is(err, ErrNoObservations) {
		t.Fatalf("empty batch: %v", err)
	}
	var unbuilt *Measure
	if err := unbuilt.ScoreBatchInto(batch, qs, ok); !errors.Is(err, ErrUnbuilt) {
		t.Fatalf("nil measure: %v", err)
	}
}

// TestScoreBatchIntoMetrics: per-batch accounting leaves the same counts
// and histogram as scoring each observation with Score.
func TestScoreBatchIntoMetrics(t *testing.T) {
	batch := make([]Observation, 50)
	for i := range batch {
		x := float64(i)/8 - 3
		batch[i] = Observation{Cues: []float64{x, x / 3, -x}, Class: sensor.Context(i % 4)}
	}
	one, each := kernelTestMeasure(t), kernelTestMeasure(t)
	regBatch, regEach := obs.NewRegistry(), obs.NewRegistry()
	one.Instrument(regBatch)
	each.Instrument(regEach)
	if err := one.ScoreBatchInto(batch, make([]float64, len(batch)), make([]bool, len(batch))); err != nil {
		t.Fatal(err)
	}
	for _, o := range batch {
		_, _ = each.Score(o.Cues, o.Class)
	}
	if regEach.Counter(MetricEpsilon).Value() == 0 {
		t.Fatal("batch has no ε score")
	}
	for _, name := range []string{MetricScored, MetricEpsilon} {
		if got, want := regBatch.Counter(name).Value(), regEach.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	hb, he := regBatch.Histogram(MetricQuality, obs.UnitBuckets), regEach.Histogram(MetricQuality, obs.UnitBuckets)
	if hb.Count() != he.Count() || math.Float64bits(hb.Sum()) != math.Float64bits(he.Sum()) {
		t.Errorf("quality histogram count/sum %d/%v, want %d/%v", hb.Count(), hb.Sum(), he.Count(), he.Sum())
	}
}

// TestScoreBatchIntoAllocs pins batch scoring at zero allocations, with
// and without instrumentation, on a batch that is mostly ε.
func TestScoreBatchIntoAllocs(t *testing.T) {
	m := kernelTestMeasure(t)
	batch := make([]Observation, 64)
	for i := range batch {
		x := float64(i%16)/2 - 4
		batch[i] = Observation{Cues: []float64{x, -x, 2 * x}, Class: sensor.Context(i % 4)}
	}
	qs, ok := make([]float64, len(batch)), make([]bool, len(batch))
	for _, instrumented := range []bool{false, true} {
		if instrumented {
			m.Instrument(obs.NewRegistry())
		}
		if err := m.ScoreBatchInto(batch, qs, ok); err != nil {
			t.Fatal(err)
		}
		eps := 0
		for _, clean := range ok {
			if !clean {
				eps++
			}
		}
		if eps < len(batch)/2 {
			t.Fatalf("batch has %d ε scores of %d; want an ε-heavy batch", eps, len(batch))
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := m.ScoreBatchInto(batch, qs, ok); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ScoreBatchInto (instrumented=%v) allocates %v per batch, want 0", instrumented, allocs)
		}
	}
}

// FuzzKernelDifferential compares the kernel with TSK.Eval + Normalize at
// arbitrary cues and class ids; drop and extra vary the cue count.
func FuzzKernelDifferential(f *testing.F) {
	m := kernelTestMeasure(f)
	f.Add(0.0, 0.0, 0.0, 1, false, false)
	f.Add(1.0, -1.0, 0.5, 2, false, false)
	f.Add(2.0, 2.0, -2.0, 0, false, false)
	f.Add(-1.0, 1.0, 2.0, 3, false, false)
	f.Add(0.3, 0.1, -0.2, 7, false, false)
	f.Add(0.3, 0.1, -0.2, -1, false, false)
	f.Add(1e6, -1e6, 1e6, 1, false, false)
	f.Add(math.NaN(), 0.0, 0.0, 2, false, false)
	f.Add(math.Inf(1), math.Inf(-1), 0.0, 3, false, false)
	f.Add(0.5, 0.5, 0.5, 1, true, false)
	f.Add(0.5, 0.5, 0.5, 1, false, true)
	f.Fuzz(func(t *testing.T, a, b, c float64, class int, drop, extra bool) {
		cues := []float64{a, b, c}
		if drop {
			cues = cues[:2]
		}
		if extra {
			cues = append(cues, a)
		}
		checkKernel(t, m, cues, class, nil)
	})
}
