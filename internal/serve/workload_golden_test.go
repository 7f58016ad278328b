package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"cqm/internal/core"
)

// modelHash is a SHA-256 over the bits of every antecedent μ and σ and
// every consequent coefficient of the measure's quality FIS, rule by
// rule. Hashing the parameters themselves keeps the JSON schema out of
// the golden.
func modelHash(m *core.Measure) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	sys := m.System()
	for j := 0; j < sys.NumRules(); j++ {
		r := sys.Rule(j)
		for _, g := range r.Antecedent {
			put(g.Mu)
			put(g.Sigma)
		}
		for _, c := range r.Coeffs {
			put(c)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainQuickModelGolden pins the model and threshold TrainQuickModel
// trains, bit for bit. The values were recorded with the accessor-based
// Jacobi SVD; any change to the least-squares kernel, the clustering or
// the hybrid learner that moves a single bit fails here.
func TestTrainQuickModelGolden(t *testing.T) {
	golden := []struct {
		seed      int64
		threshold uint64 // math.Float64bits
		hash      string
	}{
		{1, 0x3fe7e57d4bd91eac, "65504200fa5aea272a335cb5f6abc96f0f42acf21f26982248cebeaf677a14d7"},
		{2, 0x3fe5a14e6725053c, "fb6192f005ded044f9f1bee343ab5c8046ae2293210c51d9eb17463f6de04c90"},
		{3, 0x3fe7a7665631fe05, "507774fcc355a7246460424d1e564811cb5b194db6a115b6b79f58b9c64674f0"},
	}
	for _, g := range golden {
		m, thr, err := TrainQuickModel(g.seed, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", g.seed, err)
		}
		got := modelHash(m)
		if math.Float64bits(thr) != g.threshold {
			t.Errorf("seed %d: threshold %#x (%v), want %#x", g.seed, math.Float64bits(thr), thr, g.threshold)
		}
		if got != g.hash {
			t.Errorf("seed %d: model hash %s, want %s", g.seed, got, g.hash)
		}
		m0, thr0, err := TrainQuickModel(g.seed, 0)
		if err != nil {
			t.Fatalf("seed %d workers 0: %v", g.seed, err)
		}
		if h0 := modelHash(m0); h0 != got || math.Float64bits(thr0) != math.Float64bits(thr) {
			t.Errorf("seed %d: workers 0 gives hash %s threshold %v, workers 1 gives %s %v", g.seed, h0, thr0, got, thr)
		}
	}
}

// trainAllocBudget bounds the heap one TrainQuickModel allocates. The Go
// runtime runs its first collection when the heap reaches 4 MB; training
// well under that, with room left for the rest of the daemon's start-up,
// lets cqmserve listen before any GC cycle, without the training garbage
// in its resident set.
const trainAllocBudget = 1 << 20

// TestTrainQuickModelAllocBudget holds one TrainQuickModel to
// trainAllocBudget bytes of heap allocation. TotalAlloc counts the whole
// process, so the least of three runs is taken: anything else allocating
// meanwhile can only add to a run.
func TestTrainQuickModelAllocBudget(t *testing.T) {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := TrainQuickModel(1, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > trainAllocBudget {
		t.Errorf("TrainQuickModel(1, 0) allocates %d bytes, budget %d", least, trainAllocBudget)
	}
	t.Logf("TrainQuickModel(1, 0) allocates %d bytes", least)
}

// BenchmarkTrainQuickModel times the in-process training cqmserve runs
// before its first answer: the classifier, the observations, the quality
// FIS and the threshold analysis.
func BenchmarkTrainQuickModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := TrainQuickModel(1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
