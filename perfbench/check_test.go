package main

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqm/internal/core"
	"cqm/internal/particle"
	"cqm/internal/serve"
)

// testReference trains the served model and scores a seeded pool, as a
// run does.
func testReference(t *testing.T) (*reference, *core.Measure) {
	t.Helper()
	m, threshold, err := serve.TrainQuickModel(trainSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := serve.NewWorkload(serve.WorkloadConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(m, threshold, pool)
	if err != nil {
		t.Fatal(err)
	}
	return ref, m
}

// flipped is the other scored status.
func flipped(s serve.Status) serve.Status {
	if s == serve.StatusAccepted {
		return serve.StatusDiscarded
	}
	return serve.StatusAccepted
}

func TestMatchBinary(t *testing.T) {
	ref, _ := testReference(t)
	exp := &ref.exps[ref.probe]
	good := serve.Response{Status: exp.status, Q: exp.wireQ}
	// One q15 step: the smallest change the wire can carry.
	step := 1.0 / 32767
	cases := []struct {
		name string
		resp serve.Response
		want bool
	}{
		{"equal", good, true},
		{"flipped status", serve.Response{Status: flipped(exp.status), Q: exp.wireQ}, false},
		{"perturbed q", serve.Response{Status: exp.status, Q: exp.wireQ + step}, false},
		{"epsilon", serve.Response{Status: serve.StatusEpsilon}, false},
		{"reject", serve.Response{Rejected: true, Reject: serve.RejectShed}, false},
	}
	for _, c := range cases {
		if got := matchBinary(exp, c.resp); got != c.want {
			t.Errorf("%s: match = %v, want %v", c.name, got, c.want)
		}
	}
	eps := &expect{status: serve.StatusEpsilon}
	if !matchBinary(eps, serve.Response{Status: serve.StatusEpsilon}) {
		t.Error("ε answer to an ε reference must match")
	}
}

func TestMatchJSON(t *testing.T) {
	ref, _ := testReference(t)
	exp := &ref.exps[ref.probe]
	q := exp.q
	next := math.Nextafter(q, 2)
	cases := []struct {
		name string
		resp serve.JSONResponse
		want bool
	}{
		{"equal", serve.JSONResponse{Status: exp.status.String(), Q: &q}, true},
		{"flipped status", serve.JSONResponse{Status: flipped(exp.status).String(), Q: &q}, false},
		{"perturbed q", serve.JSONResponse{Status: exp.status.String(), Q: &next}, false},
		{"missing q", serve.JSONResponse{Status: exp.status.String()}, false},
		{"reject", serve.JSONResponse{Status: "rejected", Reject: "overloaded"}, false},
	}
	for _, c := range cases {
		if got := matchJSON(exp, c.resp); got != c.want {
			t.Errorf("%s: match = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSerialClientCountsFailures drives the serial client against a fake
// binary front that answers the first frame correctly, then flips a
// status, perturbs a q, rejects a frame, and hangs up on the fifth without
// answering: every one of the last four must count as failed.
func TestSerialClientCountsFailures(t *testing.T) {
	ref, m := testReference(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = nc.Close() }()
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		for k := 0; ; k++ {
			req, err := serve.ReadRequest(nc)
			if err != nil || k == 4 {
				return // k == 4: the missing answer
			}
			exp, err := scoreReference(m, ref.threshold, serve.Item{Cues: req.Cues, ClassID: req.ClassID})
			if err != nil {
				t.Error(err)
				return
			}
			resp := serve.Response{Node: req.Node, Seq: req.Seq, Status: exp.status, Q: exp.q}
			switch k {
			case 1:
				resp.Status = flipped(exp.status)
			case 2:
				if resp.Q > 0.5 {
					resp.Q -= 0.01
				} else {
					resp.Q += 0.01
				}
				if exp.status == serve.StatusEpsilon {
					resp.Status = serve.StatusAccepted
				}
			case 3:
				resp = serve.Response{Node: req.Node, Seq: req.Seq, Rejected: true, Reject: serve.RejectOverloaded}
			}
			frame, err := serve.EncodeResponse(resp)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := nc.Write(frame); err != nil {
				return
			}
		}
	}()

	nodes := []particle.NodeID{serve.PenNode(0)}
	var answered atomic.Int64
	var measuring, stop atomic.Bool
	measuring.Store(true)
	c := &conn{ref: ref, nodes: nodes, clk: clock{base: time.Now()}, conns: 1, answered: &answered, measuring: &measuring}
	err = c.serial(ln.Addr().String(), &stop)
	wg.Wait()
	if err == nil {
		t.Fatal("serial client: want an error for the unanswered frame")
	}
	if c.t.sent != 5 || c.t.ok != 1 || c.t.mismatches != 3 || c.t.failed() != 4 {
		t.Fatalf("tally sent %d ok %d mismatches %d failed %d; want 5, 1, 3, 4",
			c.t.sent, c.t.ok, c.t.mismatches, c.t.failed())
	}
}

func TestTallyMissingAnswers(t *testing.T) {
	var a, b tally
	a.sent, b.sent = 3, 2
	a.answer(true, 10)
	a.answer(false, 10)
	b.answer(true, 10)
	a.add(&b)
	if a.sent != 5 || a.ok != 2 || a.mismatches != 1 || a.failed() != 3 || len(a.latUS) != 3 {
		t.Fatalf("merged tally %+v: want 5 sent, 2 ok, 1 mismatch, 3 failed (2 unanswered)", a)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); math.Abs(got-4) > 1e-12 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestHistQuantile(t *testing.T) {
	before := scrape{samples: map[string]float64{}}
	after := scrape{samples: map[string]float64{
		`h_bucket{le="1"}`:    2,
		`h_bucket{le="2"}`:    6,
		`h_bucket{le="+Inf"}`: 8,
		`h_count`:             8,
	}}
	// 4 of 8 observations lie at or below the median: halfway into (1,2].
	if got := histQuantile(before, after, "h", 0.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("p50 = %v, want 1.5", got)
	}
}
