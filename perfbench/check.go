package main

import (
	"fmt"
	"math"

	"cqm/internal/core"
	"cqm/internal/particle"
	"cqm/internal/sensor"
	"cqm/internal/serve"
)

// trainSeed is the seed of cqmserve's in-process training pass when it is
// launched without -train-seed; the reference model is trained from the
// same seed, so it is bit-identical to the served one.
const trainSeed = 1

// expect is the reference answer to one request payload.
type expect struct {
	status serve.Status
	// q is the reference quality (JSON answers must match it bit for bit).
	q float64
	// wireQ is q after the q15 round trip of the binary response frame
	// (binary answers must match it bit for bit).
	wireQ float64
}

// reference holds the reference answer of every payload in the seeded
// workload pool.
type reference struct {
	pool      *serve.Workload
	threshold float64
	exps      []expect
	index     map[*float64]int // pool entry of an item, by its cue slice
	probe     int              // a pool entry with a scored, non-ε answer
}

// newReference scores every pool payload with core.Measure.Score at the
// trained threshold — the plain reference the server's batched path must
// reproduce.
func newReference(m *core.Measure, threshold float64, pool *serve.Workload) (*reference, error) {
	ref := &reference{
		pool:      pool,
		threshold: threshold,
		exps:      make([]expect, pool.Len()),
		index:     make(map[*float64]int, pool.Len()),
		probe:     -1,
	}
	for i := 0; i < pool.Len(); i++ {
		it := pool.Item(0, i)
		exp, err := scoreReference(m, threshold, it)
		if err != nil {
			return nil, err
		}
		ref.exps[i] = exp
		ref.index[&it.Cues[0]] = i
		if ref.probe < 0 && exp.status != serve.StatusEpsilon {
			ref.probe = i
		}
	}
	if ref.probe < 0 {
		return nil, fmt.Errorf("workload pool has no scored payload to probe with")
	}
	return ref, nil
}

// scoreReference computes the reference answer of one payload.
func scoreReference(m *core.Measure, threshold float64, it serve.Item) (expect, error) {
	q, err := m.Score(it.Cues, sensor.ContextByID(int(it.ClassID)))
	switch {
	case err != nil && core.IsEpsilon(err):
		return expect{status: serve.StatusEpsilon}, nil
	case err != nil:
		return expect{}, fmt.Errorf("reference scorer: %w", err)
	}
	exp := expect{status: serve.StatusDiscarded, q: q}
	if q > threshold {
		exp.status = serve.StatusAccepted
	}
	frame, err := serve.EncodeResponse(serve.Response{Status: exp.status, Q: q})
	if err != nil {
		return expect{}, err
	}
	wire, err := serve.DecodeResponse(frame)
	if err != nil {
		return expect{}, err
	}
	exp.wireQ = wire.Q
	return exp, nil
}

// item returns pen p's round-r payload and the index of its reference
// answer.
func (r *reference) item(pen, round int) (serve.Item, int) {
	it := r.pool.Item(pen, round)
	return it, r.index[&it.Cues[0]]
}

// matchBinary reports whether a binary-front answer equals the reference:
// not a reject, the same status, and — unless the reference is ε — the
// same q15 quality bit for bit.
func matchBinary(exp *expect, got serve.Response) bool {
	if got.Rejected || got.Status != exp.status {
		return false
	}
	return exp.status == serve.StatusEpsilon || math.Float64bits(got.Q) == math.Float64bits(exp.wireQ)
}

// matchJSON reports whether an HTTP answer equals the reference: the same
// status and, unless the reference is ε, the same float64 q bit for bit.
func matchJSON(exp *expect, got serve.JSONResponse) bool {
	if got.Status != exp.status.String() {
		return false
	}
	if exp.status == serve.StatusEpsilon {
		return got.Q == nil
	}
	return got.Q != nil && math.Float64bits(*got.Q) == math.Float64bits(exp.q)
}

// tally counts one client's frames. A frame counts as ok only when its
// answer arrived and matched the reference; everything else sent — a
// reject, a mismatch, a missing answer — is a failure.
type tally struct {
	sent int64
	ok   int64
	// mismatches counts answers that arrived but differ from the
	// reference (rejects included).
	mismatches int64
	// latUS holds the round trip of every answered frame, in µs.
	latUS []float64
	// doneNS holds the arrival stamp of every answer of a one-in-flight
	// client (for its throughput buckets).
	doneNS []int64
}

// failed is the number of frames sent without a matching answer.
func (t *tally) failed() int64 { return t.sent - t.ok }

// add folds another tally into t.
func (t *tally) add(o *tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.mismatches += o.mismatches
	t.latUS = append(t.latUS, o.latUS...)
}

// answer records one answer's verdict and round trip.
func (t *tally) answer(match bool, rttUS float64) {
	t.latUS = append(t.latUS, rttUS)
	if match {
		t.ok++
	} else {
		t.mismatches++
	}
}

// probeNode is the source id of the set-up probe request; it is not one of
// the workload's pens.
var probeNode = particle.NodeIDFromString("probe")
