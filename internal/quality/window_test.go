package quality

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzWindowDifferential checks the growing ring against a from-scratch
// recomputation over the last W observations, at windows of 1–130 (the
// ring starts at ringStart slots and doubles up to W). Each 3-byte record
// of the input is one observation of one of two node-named sources:
// flags, q and a time step. The flags also choose where ObserveBatch
// chunks end; after every chunk each source's windowed counts, sums,
// windowQs and velocity must match the naive recomputation.
//
// Flags: bits 0–2 == 0 make an ε decision, bit 3 marks it degraded, bit 4
// picks the source, and bits 5–6 == 0 end the chunk after it.
func FuzzWindowDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []uint8{1, 15, 16, 17, 31, 33, 64, 100} {
		data := make([]byte, 3*(3*int(w)+40))
		rng.Read(data)
		f.Add(w-1, data)
	}
	f.Fuzz(func(t *testing.T, w uint8, data []byte) {
		window := 1 + int(w)%130
		e := NewEngine(Config{Window: window, Threshold: 0.6})
		ids := [2][8]byte{node("pen-a"), node("pen-b")}
		var history [2][]Observation
		var chunk []Observation
		at := 0.0
		for i := 0; i+3 <= len(data); i += 3 {
			flags, q, dt := data[i], data[i+1], data[i+2]
			at += float64(dt % 4)
			o := Observation{Node: ids[flags>>4&1], At: at, Degraded: flags&8 != 0}
			if flags&7 != 0 {
				o.HasQ, o.Q = true, float64(q)/255
			}
			chunk = append(chunk, o)
			history[flags>>4&1] = append(history[flags>>4&1], o)
			if flags>>5&3 != 0 && i+6 <= len(data) {
				continue
			}
			e.ObserveBatch(chunk)
			chunk = chunk[:0]
			for k, h := range history {
				if len(h) > 0 {
					checkWindow(t, e.sources[string(ids[k][:5])], h[max(0, len(h)-window):], window, len(h))
				}
			}
		}
	})
}

// checkWindow compares s's windowed state with a recomputation over want,
// the source's last observations, oldest first; step is how many the
// source has made.
func checkWindow(t *testing.T, s *source, want []Observation, window, step int) {
	t.Helper()
	var sum, sum2 float64
	var withQ, accept, eps, degraded int
	var qs []float64
	for _, o := range want {
		if o.HasQ {
			sum += o.Q
			sum2 += o.Q * o.Q
			withQ++
			qs = append(qs, o.Q)
			if o.Q > 0.6 {
				accept++
			}
		} else {
			eps++
		}
		if o.Degraded {
			degraded++
		}
	}
	if len(s.ring) != len(want) {
		t.Fatalf("window %d step %d: ring holds %d samples, want %d", window, step, len(s.ring), len(want))
	}
	if c := cap(s.ring); c > window || c > max(ringStart, 2*len(s.ring)) {
		t.Fatalf("window %d step %d: ring capacity %d for %d samples", window, step, c, len(s.ring))
	}
	if s.wWithQ != withQ || s.wEpsilon != eps || s.wAccept != accept || s.wDegraded != degraded {
		t.Fatalf("window %d step %d: counts (q=%d ε=%d acc=%d deg=%d), want (q=%d ε=%d acc=%d deg=%d)",
			window, step, s.wWithQ, s.wEpsilon, s.wAccept, s.wDegraded, withQ, eps, accept, degraded)
	}
	if math.Abs(s.wSum-sum) > 1e-9 || math.Abs(s.wSum2-sum2) > 1e-9 {
		t.Fatalf("window %d step %d: sums (%v, %v), want (%v, %v)", window, step, s.wSum, s.wSum2, sum, sum2)
	}
	got := s.windowQs()
	if len(got) != len(qs) {
		t.Fatalf("window %d step %d: windowQs %v, want %v", window, step, got, qs)
	}
	for i := range qs {
		if math.Float64bits(got[i]) != math.Float64bits(qs[i]) {
			t.Fatalf("window %d step %d: windowQs %v, want %v", window, step, got, qs)
		}
	}
	if v, nv := s.velocity(), naiveVelocity(want); math.Float64bits(v) != math.Float64bits(nv) {
		t.Fatalf("window %d step %d: velocity %v, want %v", window, step, v, nv)
	}
}

// naiveVelocity is the OLS slope of q against time over the
// quality-carrying observations of window, summed oldest first as
// source.velocity sums them.
func naiveVelocity(window []Observation) float64 {
	var ts, qs []float64
	for _, o := range window {
		if o.HasQ {
			ts = append(ts, o.At)
			qs = append(qs, o.Q)
		}
	}
	if len(qs) < 2 {
		return 0
	}
	var sumT, sumQ float64
	for i := range qs {
		sumT += ts[i]
		sumQ += qs[i]
	}
	n := float64(len(qs))
	meanT, meanQ := sumT/n, sumQ/n
	var cov, varT float64
	for i := range qs {
		dt := ts[i] - meanT
		cov += dt * (qs[i] - meanQ)
		varT += dt * dt
	}
	if varT <= 0 {
		return 0
	}
	return cov / varT
}
