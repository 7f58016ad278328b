package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/fuzzy"
	"cqm/internal/particle"
	"cqm/internal/sensor"
)

// fuzzSrv is one long-lived server shared by the fuzz workers; it is
// never drained (the fuzzing process just exits).
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

// fuzzServer builds the shared target: a 2-shard server over a one-cue
// constant-bias model, so one-cue requests score and any other cue count
// answers ε, as Measure.Score does for a cue vector of the wrong length.
func fuzzServer() *Server {
	fuzzOnce.Do(func() {
		sys, err := fuzzy.NewTSK(2, []fuzzy.Rule{{
			Antecedent: []fuzzy.Gaussian{{Mu: 0.5, Sigma: 10}, {Mu: 0, Sigma: 10}},
			Coeffs:     []float64{0, 0, 0.75},
		}})
		if err != nil {
			panic(err)
		}
		fuzzSrv, err = New(Config{
			Shards:    2,
			Threshold: 0.5,
			Handle:    ckpt.NewHandle(core.MeasureFromSystem(sys)),
		})
		if err != nil {
			panic(err)
		}
	})
	return fuzzSrv
}

// FuzzServeFrame fuzzes the binary frame path: arbitrary bytes through
// DecodeRequest/ReadRequest must never panic and fail only with typed
// errors; whatever decodes must round-trip bit-identically and survive
// the full serving path down to a well-formed response frame.
func FuzzServeFrame(f *testing.F) {
	valid, err := EncodeRequest(Request{
		Node:       particle.NodeIDFromString("pen-0001"),
		Seq:        7,
		SentMillis: 1234,
		ClassID:    2,
		Cues:       []float64{0.5},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:10])                // truncated header
	f.Add(valid[:particle.FrameLen]) // header without cue section
	corrupt := append([]byte(nil), valid...)
	corrupt[particle.FrameLen+2] ^= 0x80
	f.Add(corrupt) // cue CRC mismatch
	multi, err := EncodeRequest(Request{Node: particle.NodeIDFromString("pen-0002"), Cues: []float64{1, 2, 3, 4}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAA}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			// The stream reader must not panic on the same garbage. It may
			// legitimately succeed on a valid frame carrying trailing bytes
			// (it stops at the declared boundary); that prefix must then
			// decode on its own.
			if _, rerr := ReadRequest(bytes.NewReader(data)); rerr == nil {
				if _, perr := DecodeRequest(data[:requestLen(data)]); perr != nil {
					t.Fatalf("ReadRequest accepted what DecodeRequest rejects: %v (prefix err %v)", err, perr)
				}
			}
			return
		}
		// Round trip is bit-identical.
		re, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("re-encoding decoded request: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", re, data)
		}
		again, err := DecodeRequest(re)
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("second decode: %+v, %v", again, err)
		}
		streamed, err := ReadRequest(bytes.NewReader(data))
		if err != nil || !reflect.DeepEqual(streamed, req) {
			t.Fatalf("stream decode: %+v, %v", streamed, err)
		}
		// Full serving path: the answer is always one decodable response
		// frame echoing the request identity.
		frame := answerFrame(fuzzServer(), req)
		resp, err := DecodeResponse(frame)
		if err != nil {
			t.Fatalf("undecodable response: %v", err)
		}
		if resp.Node != req.Node || resp.Seq != req.Seq || resp.SentMillis != req.SentMillis {
			t.Fatalf("response identity mismatch: %+v for %+v", resp, req)
		}
	})
}

// requestLen returns the encoded length the frame's own header declares,
// clamped to len(data); used to check ReadRequest's prefix behavior.
func requestLen(data []byte) int {
	if len(data) < particle.FrameLen+1 {
		return len(data)
	}
	n := int(data[particle.FrameLen])
	total := particle.FrameLen + 1 + 8*n + 2
	if total > len(data) {
		return len(data)
	}
	return total
}

// FuzzServeJSON fuzzes the HTTP front: arbitrary bodies against /score
// and /score/batch must never panic, always answer JSON, and only with
// the documented status codes.
func FuzzServeJSON(f *testing.F) {
	f.Add([]byte(`{"source":"pen-1","seq":1,"class":1,"cues":[0.5]}`))
	f.Add([]byte(`{"source":"pen-1","class":1,"cues":[1e9]}`))
	f.Add([]byte(`{"requests":[{"source":"pen-1","class":1,"cues":[0.5]},{"source":"pen-2","class":2,"cues":[0.25,0.5]}]}`))
	f.Add([]byte(`{"source":"a-name-way-too-long","class":1,"cues":[0.5]}`))
	f.Add([]byte(`{"source":"p","class":900,"cues":[0.5]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusBadRequest:          true,
		http.StatusTooManyRequests:     true,
		http.StatusServiceUnavailable:  true,
		http.StatusInternalServerError: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzServer().HTTPHandler()
		for _, path := range []string{"/score", "/score/batch"} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			h.ServeHTTP(rec, req)
			if !allowed[rec.Code] {
				t.Fatalf("%s: status %d for body %q", path, rec.Code, body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: non-JSON answer %q", path, rec.Body.String())
			}
		}
	})
}

// FuzzResponseDecode fuzzes the response side of the codec: whatever
// DecodeResponse accepts must survive an encode/decode cycle unchanged
// (bytes may differ — decoding drops header fields a response does not
// model, like the class byte of a scored frame).
func FuzzResponseDecode(f *testing.F) {
	for _, r := range []Response{
		{Status: StatusAccepted, Q: 0.75},
		{Status: StatusEpsilon},
		{Rejected: true, Reject: RejectDraining},
	} {
		frame, err := EncodeResponse(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		re, err := EncodeResponse(resp)
		if err != nil {
			t.Fatalf("re-encoding decoded response %+v: %v", resp, err)
		}
		again, err := DecodeResponse(re)
		if err != nil {
			t.Fatalf("decoding re-encoded response: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("response cycle drifted:\n got %+v\nwant %+v", again, resp)
		}
	})
}

// diffThreshold is FuzzServeDifferential's acceptance threshold.
const diffThreshold = 0.45

// diffRequests decodes a fuzz input into a stream of at most 64 valid
// requests. Each takes a class byte, a cue-count byte (1 to 3 cues, so the
// one-cue model also sees wrong arities; the top bit scales the cues far
// past every rule centre) and two bytes per cue, a value in [−8, 8).
func diffRequests(data []byte) []Request {
	var reqs []Request
	for len(data) >= 2 && len(reqs) < 64 {
		class, shape := data[0], data[1]
		data = data[2:]
		n := 1 + int(shape&0x7f)%3
		if len(data) < 2*n {
			break
		}
		cues := make([]float64, n)
		for i := range cues {
			cues[i] = float64(int16(binary.LittleEndian.Uint16(data[2*i:]))) / 4096
			if shape&0x80 != 0 {
				cues[i] *= 1e6
			}
		}
		data = data[2*n:]
		i := len(reqs)
		reqs = append(reqs, Request{
			Node:       particle.NodeIDFromString(fmt.Sprintf("p%d", i%5)),
			Seq:        uint16(i),
			SentMillis: uint32(i),
			ClassID:    class,
			Cues:       cues,
		})
	}
	return reqs
}

// diffWant is the reference outcome of one request: Measure.Score at the
// class the serving path derives from the wire byte.
func diffWant(t *testing.T, m *core.Measure, req Request) Outcome {
	q, err := m.Score(req.Cues, sensor.ContextByID(int(req.ClassID)))
	switch {
	case core.IsEpsilon(err):
		return Outcome{Status: StatusEpsilon}
	case err != nil:
		t.Fatalf("Score(%v, %d): %v", req.Cues, req.ClassID, err)
	case q > diffThreshold:
		return Outcome{Status: StatusAccepted, Q: q}
	}
	return Outcome{Status: StatusDiscarded, Q: q}
}

// FuzzServeDifferential sends random request streams through both fronts
// — the binary connection loop over net.Pipe, and the HTTP handler's
// /score and /score/batch — and checks every answer against
// Measure.Score: at the wire's q15 resolution on the binary front, bit for
// bit on the JSON front.
func FuzzServeDifferential(f *testing.F) {
	m := variedMeasure(f)
	s, err := New(Config{Shards: 2, Threshold: diffThreshold, Handle: ckpt.NewHandle(m)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{1, 0, 0x00, 0x04})
	f.Add([]byte{2, 0, 0x33, 0x03, 3, 0, 0xcd, 0x0c, 0, 0, 0x00, 0x08, 9, 0, 0x00, 0xf0})
	f.Add([]byte{1, 1, 0x00, 0x04, 0x00, 0x04, 2, 2, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{1, 0x80, 0x00, 0x40, 3, 0, 0xff, 0x7f, 2, 0, 0x00, 0x80})
	f.Add(bytes.Repeat([]byte{2, 0, 0x66, 0x06}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		reqs := diffRequests(data)
		if len(reqs) == 0 {
			return
		}
		want := make([]Outcome, len(reqs))
		var stream []byte
		for i, req := range reqs {
			want[i] = diffWant(t, m, req)
			if stream, err = AppendRequest(stream, req); err != nil {
				t.Fatal(err)
			}
		}

		// Binary front: answers come back in completion order, keyed by seq.
		client, conn := net.Pipe()
		// On a failure, closing unblocks the writer and serveConn.
		defer func() { _ = client.Close() }()
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.serveConn(conn)
		}()
		_ = client.SetDeadline(time.Now().Add(10 * time.Second))
		wrote := make(chan error, 1)
		go func() {
			_, err := client.Write(stream)
			wrote <- err
		}()
		seen := make([]bool, len(reqs))
		var buf [particle.FrameLen]byte
		for range reqs {
			if _, err := io.ReadFull(client, buf[:]); err != nil {
				t.Fatalf("binary front: %v", err)
			}
			got, err := DecodeResponse(buf[:])
			if err != nil || int(got.Seq) >= len(reqs) || seen[got.Seq] {
				t.Fatalf("binary front: bad answer %+v (%v)", got, err)
			}
			seen[got.Seq] = true
			req, w := reqs[got.Seq], want[got.Seq]
			wire, err := EncodeResponse(Response{Node: req.Node, Seq: req.Seq, SentMillis: req.SentMillis, Status: w.Status, Q: w.Q})
			if err != nil {
				t.Fatal(err)
			}
			if ref, err := DecodeResponse(wire); err != nil || got != ref {
				t.Fatalf("binary front: seq %d answered %+v, Score gives %+v", got.Seq, got, ref)
			}
		}
		if err := <-wrote; err != nil {
			t.Fatalf("binary front write: %v", err)
		}
		_ = client.Close()
		<-served

		// HTTP front: each request alone, then all of them in one batch.
		h := s.HTTPHandler()
		post := func(path string, body any) []byte {
			payload, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
			}
			return rec.Body.Bytes()
		}
		jreqs := make([]JSONRequest, len(reqs))
		wantJSON := make([]JSONResponse, len(reqs))
		for i, req := range reqs {
			jreqs[i] = JSONRequest{Source: fmt.Sprintf("p%d", i%5), Seq: req.Seq, SentMillis: req.SentMillis, Class: int(req.ClassID), Cues: req.Cues}
			wantJSON[i] = outcomeJSON(jreqs[i], want[i])
		}
		for i, jreq := range jreqs {
			var got JSONResponse
			if err := json.Unmarshal(post("/score", jreq), &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantJSON[i]) {
				t.Fatalf("/score %+v: got %+v, Score gives %+v", jreq, got, wantJSON[i])
			}
		}
		var batch struct {
			Responses []JSONResponse `json:"responses"`
		}
		if err := json.Unmarshal(post("/score/batch", struct {
			Requests []JSONRequest `json:"requests"`
		}{jreqs}), &batch); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch.Responses, wantJSON) {
			t.Fatalf("/score/batch: got %+v, Score gives %+v", batch.Responses, wantJSON)
		}
	})
}
