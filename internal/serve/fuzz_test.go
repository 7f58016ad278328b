package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/fuzzy"
	"cqm/internal/particle"
)

// fuzzSrv is one long-lived server shared by the fuzz workers; it is
// never drained (the fuzzing process just exits).
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

// fuzzServer builds the shared target: a 2-shard server over a one-cue
// constant-bias model, so one-cue requests score and any other cue count
// exercises the internal-reject path.
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
