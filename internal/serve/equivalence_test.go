package serve

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/fuzzy"
	"cqm/internal/particle"
	"cqm/internal/sensor"
)

// variedMeasure builds a two-rule quality FIS whose output genuinely
// depends on (cue, class), so the equivalence property is not vacuous:
// different frames produce different q, both decisions occur, and extreme
// cues fall into ε.
func variedMeasure(t testing.TB) *core.Measure {
	t.Helper()
	sys, err := fuzzy.NewTSK(2, []fuzzy.Rule{
		{
			Antecedent: []fuzzy.Gaussian{{Mu: 0.2, Sigma: 0.25}, {Mu: 1, Sigma: 1.2}},
			Coeffs:     []float64{0.6, 0.05, 0.1},
		},
		{
			Antecedent: []fuzzy.Gaussian{{Mu: 0.8, Sigma: 0.25}, {Mu: 2, Sigma: 1.2}},
			Coeffs:     []float64{-0.4, 0.08, 0.55},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return core.MeasureFromSystem(sys)
}

// equivalenceFrames generates a deterministic frame mix: 32 sources, 16
// rounds each, classes cycling through the context set, one in every 16
// cues extreme enough to underflow into ε.
func equivalenceFrames() []Request {
	rng := rand.New(rand.NewSource(7))
	const sources, rounds = 32, 16
	frames := make([]Request, 0, sources*rounds)
	for r := 0; r < rounds; r++ {
		for s := 0; s < sources; s++ {
			cue := rng.Float64()
			if (r*sources+s)%16 == 15 {
				cue = 1e9 // ε: no rule activates
			}
			frames = append(frames, Request{
				Node:       PenNode(s),
				Seq:        uint16(r),
				SentMillis: uint32(r * 1000),
				ClassID:    byte(1 + (s % 3)),
				Cues:       []float64{cue},
			})
		}
	}
	return frames
}

// directOutcomes scores frames through ScoreBatch with no serving layer at
// all — the reference the sharded server must match bit for bit.
func directOutcomes(t *testing.T, m *core.Measure, frames []Request, threshold float64) []Outcome {
	t.Helper()
	obs := make([]core.Observation, len(frames))
	for i, f := range frames {
		obs[i] = core.Observation{Cues: f.Cues, Class: sensor.ContextByID(int(f.ClassID))}
	}
	qs, ok, err := m.ScoreBatch(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]Outcome, len(frames))
	for i := range frames {
		switch {
		case !ok[i]:
			outs[i] = Outcome{Status: StatusEpsilon}
		case qs[i] > threshold:
			outs[i] = Outcome{Status: StatusAccepted, Q: qs[i]}
		default:
			outs[i] = Outcome{Status: StatusDiscarded, Q: qs[i]}
		}
	}
	return outs
}

// TestShardingEquivalence is the core serving property: for the same
// frames, a server with 1, 2, 4, or 8 shards produces bit-identical
// (q, decision, ε-routing) per source as one direct unsharded ScoreBatch
// call. Run under -race this also exercises the admission path
// concurrently.
func TestShardingEquivalence(t *testing.T) {
	m := variedMeasure(t)
	frames := equivalenceFrames()
	const threshold = 0.45
	want := directOutcomes(t, m, frames, threshold)

	// Guard against a vacuous property: the mix must exercise every
	// decision path.
	var accepted, discarded, epsilon int
	for _, o := range want {
		switch o.Status {
		case StatusAccepted:
			accepted++
		case StatusDiscarded:
			discarded++
		default:
			epsilon++
		}
	}
	if accepted == 0 || discarded == 0 || epsilon == 0 {
		t.Fatalf("degenerate mix: accepted=%d discarded=%d epsilon=%d", accepted, discarded, epsilon)
	}

	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(map[int]string{1: "1-shard", 2: "2-shards", 4: "4-shards", 8: "8-shards"}[shards], func(t *testing.T) {
			s, err := New(Config{
				Shards:    shards,
				Threshold: threshold,
				Handle:    ckpt.NewHandle(m),
			})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]Outcome, len(frames))
			var wg sync.WaitGroup
			for i := range frames {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out, err := s.Submit(frames[i])
					if err != nil {
						t.Errorf("frame %d: %v", i, err)
						return
					}
					got[i] = out
				}(i)
			}
			wg.Wait()
			s.Drain()

			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("shards=%d frame %d (source %s): got %+v, want %+v",
							shards, i, frames[i].Node, got[i], want[i])
					}
				}
			}

			// Per-source view: group both sides by source and compare, the
			// property as the issue states it.
			group := func(outs []Outcome) map[string][]Outcome {
				by := make(map[string][]Outcome)
				for i, f := range frames {
					key := f.Node.String()
					by[key] = append(by[key], outs[i])
				}
				return by
			}
			if !reflect.DeepEqual(group(got), group(want)) {
				t.Fatalf("shards=%d: per-source outcomes diverge", shards)
			}

			stats := s.Stats()
			if int(stats.Admitted) != len(frames) || int(stats.Scored()) != len(frames) {
				t.Errorf("stats = %+v, want %d admitted and scored", stats, len(frames))
			}
		})
	}
}

// TestBinaryFrontEquivalence carries the sharding property over real
// sockets: the frames go through ServeBinary on 4 pipelined connections,
// each sending every frame from its own starting offset, so many answers
// are produced by another connection's combiner. Every answer must equal
// the direct unsharded outcome at the wire's q15 resolution, at every
// shard count.
func TestBinaryFrontEquivalence(t *testing.T) {
	m := variedMeasure(t)
	frames := equivalenceFrames()
	const threshold = 0.45
	type key struct {
		node particle.NodeID
		seq  uint16
	}
	want := make(map[key]Response, len(frames))
	for i, o := range directOutcomes(t, m, frames, threshold) {
		f := frames[i]
		wire, err := EncodeResponse(Response{Node: f.Node, Seq: f.Seq, SentMillis: f.SentMillis, Status: o.Status, Q: o.Q})
		if err != nil {
			t.Fatal(err)
		}
		if want[key{f.Node, f.Seq}], err = DecodeResponse(wire); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) != len(frames) {
		t.Fatalf("frames share a node/seq: %d distinct of %d", len(want), len(frames))
	}

	const conns = 4
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) {
			s, err := New(Config{Shards: shards, Threshold: threshold, Handle: ckpt.NewHandle(m)})
			if err != nil {
				t.Fatal(err)
			}
			addr := binaryFront(t, s)
			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				var stream []byte
				for i := range frames {
					frame, err := EncodeRequest(frames[(c*len(frames)/conns+i)%len(frames)])
					if err != nil {
						t.Fatal(err)
					}
					stream = append(stream, frame...)
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
					seen := make(map[key]bool, len(frames))
					var buf [particle.FrameLen]byte
					for range frames {
						if _, err := io.ReadFull(conn, buf[:]); err != nil {
							t.Errorf("conn %d after %d answers: %v", c, len(seen), err)
							return
						}
						got, err := DecodeResponse(buf[:])
						k := key{got.Node, got.Seq}
						if err != nil || seen[k] || got != want[k] {
							t.Errorf("conn %d: answer %+v (%v), want %+v", c, got, err, want[k])
							return
						}
						seen[k] = true
					}
				}()
			}
			wg.Wait()
			s.Drain()
			if st := s.Stats(); st.Admitted != conns*uint64(len(frames)) || st.Admitted != st.Scored() {
				t.Fatalf("admitted %d, scored %d, want %d", st.Admitted, st.Scored(), conns*len(frames))
			}
		})
	}
}

// TestShardingEquivalenceRouting pins that every frame of one source lands
// on the same shard — the property that makes per-source ordering
// meaningful.
func TestShardingEquivalenceRouting(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		ring, err := NewRing(shards)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 64; s++ {
			node := PenNode(s)
			first := ring.Shard(node[:])
			for again := 0; again < 3; again++ {
				if got := ring.Shard(node[:]); got != first {
					t.Fatalf("shards=%d source %d: shard flapped %d -> %d", shards, s, first, got)
				}
			}
		}
	}
}
