package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/obs"
	"cqm/internal/quality"
	"cqm/internal/sensor"
	"cqm/internal/serve"
)

// warmCalls run untimed before a replay that can be repeated (codec and
// scoring calls), so lazy set-up and cold caches stay out of its mean.
const warmCalls = 2000

// replayInputs is how many of the run's recorded inputs each layer replay
// goes through (one full join round of the fleet).
const replayInputs = fleetPens

// joinMarks are the tracked-source counts the join profile reports at:
// each mark is the mean join time of the 100 first-seen sources ending at
// it.
var joinMarks = []struct {
	name  string
	count int
}{{"1k", 1000}, {"10k", 10000}, {"20k", 20000}}

// layerCosts are the per-call costs of the layer replays, in ns with the
// span timer's own cost taken out.
type layerCosts struct {
	timerNS      float64
	decode       float64
	encode       float64
	submit       float64
	http         float64
	score        float64 // ScoreBatch per frame at batch size 1
	scoreMean    float64 // … at the observed mean batch size
	score256     float64 // … at batch size 256
	allocsPerFrm float64
	observe      float64
	join         map[string]float64 // at each of joinMarks
	joinAll      float64            // mean over every join up to the last mark
}

// replayer times calls into one layer with a span around each.
type replayer struct {
	clk     clock
	log     *spanLog
	timerNS float64
}

// time calls call(i) for i < n with a span around each under a root span
// named after the layer, and returns the mean call time minus the span
// timer's cost. The first warm calls run untimed beforehand.
func (r *replayer) time(layer string, n, warm int, call func(i int)) float64 {
	for i := 0; i < min(warm, n); i++ {
		call(i)
	}
	root := r.log.add(nameID("replay."+layer), -1, -1, r.clk.now(), 0)
	id := nameID(layer)
	var sum int64
	for i := 0; i < n; i++ {
		s := r.clk.now()
		call(i)
		e := r.clk.now()
		r.log.add(id, root, int64(i), s, e)
		sum += e - s
	}
	if root >= 0 {
		r.log.spans[root].end = r.clk.now()
	}
	return float64(sum)/float64(n) - r.timerNS
}

// timerCost is the mean duration of an empty span: two clock reads.
func (r *replayer) timerCost() float64 {
	const n = 20000
	var sum int64
	for i := 0; i < n; i++ {
		s := r.clk.now()
		sum += r.clk.now() - s
	}
	return float64(sum) / n
}

// replayLayers replays the run's recorded inputs through each layer's
// public function inside this process. batchMean is the mean batch size the
// daemon's scrape reported for the traced run.
func (b *bench) replayLayers(batchMean float64, log *spanLog) (layerCosts, error) {
	r := &replayer{clk: b.clk, log: log}
	r.timerNS = r.timerCost()
	lc := layerCosts{timerNS: r.timerNS, join: make(map[string]float64)}

	n := replayInputs
	frames := make([][]byte, n)
	reqs := make([]serve.Request, n)
	resps := make([]serve.Response, n)
	exps := make([]*expect, n)
	observations := make([]core.Observation, n)
	sources := make([]string, n)
	bodies := make([][]byte, n)
	for j := 0; j < n; j++ {
		pen, round := j%b.spec.pens, j/b.spec.pens
		it, ei := b.ref.item(pen, round)
		exps[j] = &b.ref.exps[ei]
		reqs[j] = serve.Request{Node: b.nodes[pen], Seq: uint16(j), SentMillis: uint32(j), ClassID: it.ClassID, Cues: it.Cues}
		frame, err := serve.EncodeRequest(reqs[j])
		if err != nil {
			return lc, err
		}
		frames[j] = frame
		resps[j] = serve.Response{Node: b.nodes[pen], Seq: uint16(j), Status: exps[j].status, Q: exps[j].q}
		observations[j] = core.Observation{Cues: it.Cues, Class: sensor.ContextByID(int(it.ClassID))}
		sources[j] = b.nodes[pen].String()
		if bodies[j], err = json.Marshal(serve.JSONRequest{Source: sources[j], Seq: uint16(j), Class: int(it.ClassID), Cues: it.Cues}); err != nil {
			return lc, err
		}
	}

	// Codec layers.
	var decodeErr, encodeErr error
	lc.decode = r.time("serve.DecodeRequest", n, warmCalls, func(i int) {
		if _, err := serve.DecodeRequest(frames[i]); err != nil {
			decodeErr = err
		}
	})
	lc.encode = r.time("serve.EncodeResponse", n, warmCalls, func(i int) {
		if _, err := serve.EncodeResponse(resps[i]); err != nil {
			encodeErr = err
		}
	})
	if decodeErr != nil || encodeErr != nil {
		return lc, fmt.Errorf("codec replay: %v %v", decodeErr, encodeErr)
	}

	// Scoring core at batch size 1, at the observed mean, and at 256.
	m := b.model
	var scoreErr error
	scoreAt := func(size int) float64 {
		calls := n / size
		per := r.time(fmt.Sprintf("core.ScoreBatch.%d", size), calls, warmCalls, func(i int) {
			if _, _, err := m.ScoreBatch(observations[i*size:(i+1)*size], nil); err != nil {
				scoreErr = err
			}
		})
		return per / float64(size)
	}
	size := int(math.Max(1, math.Round(batchMean)))
	lc.score = scoreAt(1)
	lc.scoreMean = scoreAt(size)
	lc.score256 = scoreAt(256)
	if scoreErr != nil {
		return lc, scoreErr
	}
	var ms0, ms1 runtime.MemStats
	calls := n / size
	runtime.ReadMemStats(&ms0)
	for i := 0; i < calls; i++ {
		_, _, _ = m.ScoreBatch(observations[i*size:(i+1)*size], nil)
	}
	runtime.ReadMemStats(&ms1)
	lc.allocsPerFrm = float64(ms1.Mallocs-ms0.Mallocs) / float64(calls*size)

	// Quality engine: warm observations, then first sight of fleet pens.
	qobs := make([]quality.Observation, n)
	for j := range qobs {
		qobs[j] = quality.Observation{Source: sources[j], At: float64(j) / 1000, Q: exps[j].q, HasQ: exps[j].status != serve.StatusEpsilon}
	}
	warm := quality.NewEngine(quality.Config{Threshold: b.ref.threshold, Metrics: obs.NewRegistry()})
	for _, o := range qobs {
		warm.Observe(o)
	}
	lc.observe = r.time("quality.Engine.Observe", n, 0, func(i int) { warm.Observe(qobs[i]) })

	joinEng := quality.NewEngine(quality.Config{Threshold: b.ref.threshold, Metrics: obs.NewRegistry()})
	last := joinMarks[len(joinMarks)-1].count
	joinSpans := len(log.spans)
	r.time("quality.Engine.Observe.join", last, 0, func(i int) {
		joinEng.Observe(quality.Observation{Source: b.nodes[i].String(), At: float64(i) / 1000, Q: 0.5, HasQ: true})
	})
	if len(log.spans) >= joinSpans+1+last {
		calls := log.spans[joinSpans+1 : joinSpans+1+last]
		var all int64
		for _, s := range calls {
			all += s.end - s.start
		}
		lc.joinAll = float64(all)/float64(last) - r.timerNS
		for _, mk := range joinMarks {
			var sum int64
			for _, s := range calls[mk.count-100 : mk.count] {
				sum += s.end - s.start
			}
			lc.join[mk.name] = float64(sum)/100 - r.timerNS
		}
	}

	// Serving core in process, configured as cqmserve configures it.
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		Shards:       runtime.GOMAXPROCS(0),
		QueueDepth:   1024,
		BatchSize:    256,
		Threshold:    b.ref.threshold,
		Handle:       ckpt.NewHandle(m),
		Metrics:      reg,
		Quality:      quality.NewEngine(quality.Config{Threshold: b.ref.threshold, Metrics: reg}),
		ShedTarget:   25 * time.Millisecond,
		ShedInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return lc, err
	}
	defer srv.Drain()
	check := func(out serve.Outcome, err error, exp *expect) bool {
		return err == nil && out.Status == exp.status &&
			(exp.status == serve.StatusEpsilon || math.Float64bits(out.Q) == math.Float64bits(exp.q))
	}
	bad := 0
	for i := range reqs { // warm every source first
		out, err := srv.Submit(reqs[i])
		if !check(out, err, exps[i]) {
			bad++
		}
	}
	lc.submit = r.time("serve.Server.Submit", n, 0, func(i int) {
		out, err := srv.Submit(reqs[i])
		if !check(out, err, exps[i]) {
			bad++
		}
	})
	handler := srv.HTTPHandler()
	httpReqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range httpReqs {
		httpReqs[i] = httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(bodies[i]))
		recs[i] = httptest.NewRecorder()
	}
	lc.http = r.time("serve.HTTPHandler.ServeHTTP", n, 0, func(i int) { handler.ServeHTTP(recs[i], httpReqs[i]) })
	for i, rec := range recs {
		var jr serve.JSONResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &jr) != nil || !matchJSON(exps[i], jr) {
			bad++
		}
	}
	if bad > 0 {
		return lc, fmt.Errorf("in-process replay: %d answers differ from the reference", bad)
	}
	return lc, nil
}
