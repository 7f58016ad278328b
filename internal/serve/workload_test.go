package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cqm/internal/core"
	"cqm/internal/particle"
	"cqm/internal/sensor"
)

func TestWorkloadValidates(t *testing.T) {
	if _, err := NewWorkload(WorkloadConfig{FaultFraction: 1.5}); err == nil {
		t.Error("fault fraction 1.5 accepted")
	}
	if _, err := NewWorkload(WorkloadConfig{ErrorRate: -0.1}); err == nil {
		t.Error("error rate -0.1 accepted")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a, err := NewWorkload(WorkloadConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkload(WorkloadConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.Len() == 0 {
		t.Fatalf("lens: %d vs %d", a.Len(), b.Len())
	}
	for pen := 0; pen < 50; pen++ {
		for round := 0; round < 4; round++ {
			ia, ib := a.Item(pen, round), b.Item(pen, round)
			if !reflect.DeepEqual(ia, ib) {
				t.Fatalf("pen %d round %d: %+v vs %+v", pen, round, ia, ib)
			}
		}
	}
	// A different seed replays different traffic.
	c, err := NewWorkload(WorkloadConfig{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for pen := 0; pen < 50; pen++ {
		if reflect.DeepEqual(a.Item(pen, 0), c.Item(pen, 0)) {
			same++
		}
	}
	if same == 50 {
		t.Error("seeds 11 and 12 produced identical traffic")
	}
}

func TestWorkloadItemsAreValidRequests(t *testing.T) {
	w, err := NewWorkload(WorkloadConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for pen := 0; pen < 20; pen++ {
		item := w.Item(pen, pen)
		req := Request{Node: PenNode(pen), Seq: uint16(pen), ClassID: item.ClassID, Cues: item.Cues}
		if err := req.Validate(); err != nil {
			t.Fatalf("pen %d item invalid: %v", pen, err)
		}
		if _, err := EncodeRequest(req); err != nil {
			t.Fatalf("pen %d item unencodable: %v", pen, err)
		}
	}
}

func TestWorkloadItemIsPure(t *testing.T) {
	w, err := NewWorkload(WorkloadConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Item must be a pure function of (pen, round) — a million pens keep
	// no per-pen state.
	for trial := 0; trial < 3; trial++ {
		if !reflect.DeepEqual(w.Item(123456, 7), w.Item(123456, 7)) {
			t.Fatal("Item(123456, 7) not stable")
		}
	}
	// Different pens start at different pool offsets (hash-derived), so
	// the simulated fleet does not move in lockstep.
	distinct := false
	base := w.Item(0, 0)
	for pen := 1; pen < 32 && !distinct; pen++ {
		if !reflect.DeepEqual(w.Item(pen, 0), base) {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all pens replay the pool in lockstep")
	}
}

func TestPenNodeDistinct(t *testing.T) {
	seen := make(map[string]int)
	for i := 0; i < 10000; i++ {
		key := PenNode(i).String()
		if prev, dup := seen[key]; dup {
			t.Fatalf("pens %d and %d share node id %q", prev, i, key)
		}
		seen[key] = i
	}
}

func TestPenNodeMatchesSprintf(t *testing.T) {
	pens := []int{0, 1, 9, 10, 999_999, 9_999_999, 10_000_000, 123_456_789, -1, -123_456, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		pens = append(pens, rng.Intn(20_000_000), -rng.Intn(2_000_000), int(rng.Int63()))
	}
	for _, i := range pens {
		if got, want := PenNode(i), particle.NodeIDFromString(fmt.Sprintf("p%07d", i)); got != want {
			t.Fatalf("PenNode(%d) = %q, want %q", i, got[:], want[:])
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = PenNode(1234) }); n != 0 {
		t.Errorf("PenNode: %v allocs, want 0", n)
	}
}

func TestWrongClassNeverTruth(t *testing.T) {
	w, err := NewWorkload(WorkloadConfig{Seed: 9, ErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With ErrorRate 1 every item's class was flipped; flipping must never
	// return the truth, so the pool still only contains recognized classes.
	for i := 0; i < w.Len(); i++ {
		item := w.items[i]
		ctx := sensor.ContextByID(int(item.ClassID))
		if ctx == sensor.ContextUnknown {
			t.Fatalf("item %d: class %d is not a recognized context", i, item.ClassID)
		}
	}
}

func TestTrainQuickModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training the quick stack takes seconds")
	}
	m, threshold, err := TrainQuickModel(21, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Rules() == 0 {
		t.Fatal("trained measure empty")
	}
	if threshold < 0 || threshold > 1 {
		t.Fatalf("threshold %v outside [0,1]", threshold)
	}
	// The trained model must actually serve the workload it will be asked
	// to score: at least one pool item scores without error.
	w, err := NewWorkload(WorkloadConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	item := w.Item(0, 0)
	if _, err := m.Score(item.Cues, sensor.ContextByID(int(item.ClassID))); err != nil && !core.IsEpsilon(err) {
		t.Fatalf("trained model cannot score workload item: %v", err)
	}
}
