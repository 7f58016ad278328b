package quality

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cqm/internal/obs"
)

// node returns the 8-byte node id of name, zero-padded.
func node(name string) (id [8]byte) {
	copy(id[:], name)
	return id
}

// batchStream synthesizes a seeded stream mixing every way an
// observation can name its source: node ids, plain names, a name equal to
// a node's trimmed name ("pen-3" both ways), the all-zero node, and fresh
// sources that join with two observations in a row. Two sources collapse
// mid-stream so that both Page–Hinkley and KS fire; about one decision in
// fifteen is ε.
func batchStream(seed int64, n int) []Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Observation, 0, n)
	fresh := 0
	for i := 0; len(out) < n; i++ {
		var o Observation
		switch k := rng.Intn(12); {
		case k < 8:
			o.Node = node(fmt.Sprintf("pen-%d", k))
		case k == 8:
			o.Source = "cam-a"
		case k == 9:
			o.Source = "pen-3"
		case k == 10:
			// The all-zero node: the empty name.
		default:
			o.Node = [8]byte{'n', 0, 'z'} // an inner zero byte stays in the name
		}
		o.At = float64(i) / 10
		o.HasQ = rng.Intn(15) != 0
		if o.HasQ {
			o.Q = 0.85 + 0.1*rng.Float64()
			collapsing := i > n/3 && i < n/2 && (o.Node == node("pen-1") || o.Source == "pen-3" || o.Node == node("pen-3"))
			if collapsing || rng.Intn(20) == 0 {
				o.Q = 0.1 * rng.Float64()
			}
		}
		o.Degraded = rng.Intn(13) == 0
		out = append(out, o)
		if i%97 == 0 {
			// A new source, seen twice in a row.
			j := o
			j.Source, j.Node = "", node(fmt.Sprintf("j-%d", fresh))
			fresh++
			out = append(out, j, j)
		}
	}
	return out
}

// byName returns o named by its source string, the way every caller named
// sources before Observation.Node existed.
func byName(o Observation) Observation {
	if o.Source == "" {
		n := len(o.Node)
		for n > 0 && o.Node[n-1] == 0 {
			n--
		}
		o.Source = string(o.Node[:n])
	}
	o.Node = [8]byte{}
	return o
}

// TestObserveBatchMatchesObserve is the batch feed's differential test:
// one seeded stream folded one Observe at a time, through ObserveBatch in
// random chunks of 1–300, and one Observe at a time with every source
// named by its string must give the same report and the same trigger
// sequence.
func TestObserveBatchMatchesObserve(t *testing.T) {
	stream := batchStream(3, 4000)
	newEngine := func(triggers *[]Trigger) *Engine {
		return NewEngine(Config{
			Window:    32,
			Threshold: 0.6,
			Reference: testRef(),
			OnTrigger: func(tr Trigger) { *triggers = append(*triggers, tr) },
		})
	}
	reportJSON := func(e *Engine) []byte {
		b, err := json.Marshal(e.Report())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var oneTrig []Trigger
	one := newEngine(&oneTrig)
	for _, o := range stream {
		one.Observe(o)
	}

	var namedTrig []Trigger
	named := newEngine(&namedTrig)
	for _, o := range stream {
		named.Observe(byName(o))
	}

	var batchTrig []Trigger
	batched := newEngine(&batchTrig)
	rng := rand.New(rand.NewSource(4))
	seen := map[string]bool{}
	doubleJoins := 0
	for rest := stream; len(rest) > 0; {
		chunk := rest[:min(len(rest), 1+rng.Intn(300))]
		joined := map[string]int{}
		for _, o := range chunk {
			if name := byName(o).Source; !seen[name] {
				if joined[name]++; joined[name] == 2 {
					doubleJoins++
				}
			}
		}
		for name := range joined {
			seen[name] = true
		}
		batched.ObserveBatch(chunk)
		rest = rest[len(chunk):]
	}
	if doubleJoins == 0 {
		t.Fatal("no batch carried a new source twice; the stream no longer covers that case")
	}

	want := reportJSON(named)
	for _, c := range []struct {
		name     string
		e        *Engine
		triggers []Trigger
	}{{"Observe", one, oneTrig}, {"ObserveBatch", batched, batchTrig}} {
		if got := reportJSON(c.e); !bytes.Equal(got, want) {
			t.Errorf("%s report differs from the name-keyed reference:\n got %s\nwant %s", c.name, got, want)
		}
		if !reflect.DeepEqual(c.triggers, namedTrig) {
			t.Errorf("%s triggers differ from the name-keyed reference:\n got %+v\nwant %+v", c.name, c.triggers, namedTrig)
		}
	}

	// The stream must exercise what it claims to.
	kinds := map[string]int{}
	for _, tr := range namedTrig {
		kinds[tr.Kind]++
	}
	if kinds[TriggerPH] == 0 || kinds[TriggerKS] == 0 {
		t.Errorf("trigger kinds %v, want both %s and %s", kinds, TriggerPH, TriggerKS)
	}
	counts := map[string]int64{}
	for _, o := range stream {
		counts[byName(o).Source]++
	}
	rep := batched.Report()
	for _, sr := range rep.Sources {
		if sr.Observed != counts[sr.Name] {
			t.Errorf("source %q observed %d, want %d", sr.Name, sr.Observed, counts[sr.Name])
		}
		delete(counts, sr.Name)
	}
	if len(counts) != 0 {
		t.Errorf("sources missing from the report: %v", counts)
	}
	for _, name := range []string{"", "pen-3", "n\x00z", "cam-a"} {
		if !seen[name] {
			t.Errorf("stream never named source %q", name)
		}
	}
}

// TestObserveBatchZeroAlloc pins ObserveBatch's //cqm:hotpath contract:
// once every source of the batch has a full window, and between KS
// strides, folding a batch allocates nothing, node-named sources
// included, with or without a metrics registry.
func TestObserveBatchZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"no registry", Config{Window: 32, Threshold: 0.6}},
		{"registry", Config{Window: 32, Threshold: 0.6, Metrics: obs.NewRegistry()}},
	} {
		e := NewEngine(c.cfg)
		batch := make([]Observation, 100)
		for i := range batch {
			o := &batch[i]
			if i%3 == 0 {
				o.Source = fmt.Sprintf("src-%d", i%7)
			} else {
				o.Node = node(fmt.Sprintf("pen-%d", i%11))
			}
			o.HasQ, o.Q = i%9 != 0, 0.5+float64(i%5)/10
		}
		// Every source appears at least 4 times per batch, so Window
		// batches fill every window.
		for range c.cfg.Window {
			e.ObserveBatch(batch)
		}
		for name, s := range e.sources {
			if len(s.ring) != c.cfg.Window {
				t.Fatalf("%s: warm-up left %q's window at %d samples, want it full at %d", c.name, name, len(s.ring), c.cfg.Window)
			}
		}
		if n := mallocs(200, func() {
			for i := range batch {
				batch[i].At++
			}
			e.ObserveBatch(batch)
		}); n != 0 {
			t.Errorf("%s: 200 warm batches allocate %d times, want 0", c.name, n)
		}
	}
}
