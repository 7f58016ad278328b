package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cqm/internal/particle"
)

// maxJSONBody bounds a request body so a hostile client cannot balloon
// the decoder (the largest legitimate batch is far below this).
const maxJSONBody = 1 << 20

// JSONRequest is the HTTP form of a scoring request.
type JSONRequest struct {
	// Source identifies the producer (at most 8 bytes; it keys the
	// shard map).
	Source string `json:"source"`
	// Seq is the client's sequence number, echoed back.
	Seq uint16 `json:"seq"`
	// SentMillis is the client's send stamp, echoed back.
	SentMillis uint32 `json:"sent_ms,omitempty"`
	// Class is the classifier output c to score (0..255).
	Class int `json:"class"`
	// Cues is the classifier input v_C.
	Cues []float64 `json:"cues"`
	// DeadlineMillis, when non-zero, is the request's remaining deadline
	// budget in milliseconds: the server rejects rather than scores it
	// once the budget is spent.
	DeadlineMillis uint32 `json:"deadline_ms,omitempty"`
}

// JSONResponse is the HTTP form of a scoring response.
type JSONResponse struct {
	// Source and Seq echo the request.
	Source string `json:"source"`
	Seq    uint16 `json:"seq"`
	// SentMillis echoes the request stamp.
	SentMillis uint32 `json:"sent_ms,omitempty"`
	// Status is accepted|discarded|epsilon|rejected.
	Status string `json:"status"`
	// Q is the quality value, present for accepted and discarded.
	Q *float64 `json:"q,omitempty"`
	// Reject explains a rejected status.
	Reject string `json:"reject,omitempty"`
}

// jsonError is the HTTP error payload.
type jsonError struct {
	Error string `json:"error"`
}

// HTTP-specific protocol errors.
var (
	// ErrSourceLength reports a JSON source name longer than the 8-byte
	// node identifier (a longer name would silently collide after
	// truncation).
	ErrSourceLength = errors.New("serve: source name longer than 8 bytes")
	// ErrClassRange reports a class identifier outside the wire byte.
	ErrClassRange = errors.New("serve: class outside 0..255")
)

// toRequest converts and validates the JSON form.
func (j JSONRequest) toRequest() (Request, error) {
	if len(j.Source) > 8 {
		return Request{}, fmt.Errorf("%w: %q", ErrSourceLength, j.Source)
	}
	if j.Class < 0 || j.Class > 255 {
		return Request{}, fmt.Errorf("%w: %d", ErrClassRange, j.Class)
	}
	req := Request{
		Node:           particle.NodeIDFromString(j.Source),
		Seq:            j.Seq,
		SentMillis:     j.SentMillis,
		ClassID:        byte(j.Class),
		Cues:           j.Cues,
		DeadlineMillis: j.DeadlineMillis,
	}
	return req, req.Validate()
}

// HTTP front timeouts applied by NewHTTPServer. The header timeout is the
// slow-loris bound: a client must finish its request headers inside it or
// lose the connection.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpReadTimeout       = 30 * time.Second
	httpWriteTimeout      = 30 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

// NewHTTPServer wraps handler in an http.Server hardened for the open
// network: ReadHeaderTimeout caps how long a client may dribble request
// headers (the classic slow-loris hold), ReadTimeout/WriteTimeout bound a
// whole exchange, and IdleTimeout reclaims keep-alive connections. A bare
// &http.Server{} has none of these, so one slow client per goroutine can
// pin the front forever.
func NewHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

// HTTPHandler returns the scoring API: POST /score for one request,
// POST /score/batch for {"requests": [...]}. Protocol faults answer 400,
// backpressure 429, draining and missing-model 503, and internal scoring
// failures 500. Mount it next to obs.NewMux's /metrics and /quality.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", s.handleScore)
	mux.HandleFunc("/score/batch", s.handleScoreBatch)
	return mux
}

// handleScore serves one scoring request.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, jsonError{Error: "POST required"})
		return
	}
	var jreq JSONRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	if err := dec.Decode(&jreq); err != nil {
		writeJSON(w, http.StatusBadRequest, jsonError{Error: err.Error()})
		return
	}
	req, err := jreq.toRequest()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, jsonError{Error: err.Error()})
		return
	}
	out, err := s.Submit(req)
	if err != nil {
		writeJSON(w, admissionStatus(err), jsonError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, outcomeJSON(jreq, out))
}

// handleScoreBatch serves a batch: every request is admitted first and the
// shards this handler was elected to combine are combined after (so the
// requests fold into one batch per shard), all answers land on one
// channel with room for each of them, and the per-request outcomes —
// including per-request rejections — come back in request order.
func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, jsonError{Error: "POST required"})
		return
	}
	var body struct {
		Requests []JSONRequest `json:"requests"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	if err := dec.Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, jsonError{Error: err.Error()})
		return
	}
	if len(body.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, jsonError{Error: "empty batch"})
		return
	}
	tasks := make([]task, len(body.Requests))
	done := make(chan *task, len(tasks))
	var elected []*shard
	pending := 0
	for i := range tasks {
		t := &tasks[i]
		req, err := body.Requests[i].toRequest()
		if err != nil {
			t.reject = RejectProtocol
			continue
		}
		t.req, t.done = req, done
		if sh := s.admit(t, s.cfg.Clock()); sh != nil {
			elected = append(elected, sh)
		}
		pending++
	}
	combineAll(elected)
	for ; pending > 0; pending-- {
		<-done
	}
	responses := make([]JSONResponse, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if t.reject != RejectNone {
			responses[i] = rejectJSON(body.Requests[i], t.reject)
		} else {
			responses[i] = outcomeJSON(body.Requests[i], t.out)
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Responses []JSONResponse `json:"responses"`
	}{responses})
}

// outcomeJSON renders a scored outcome.
func outcomeJSON(jreq JSONRequest, out Outcome) JSONResponse {
	resp := JSONResponse{
		Source:     jreq.Source,
		Seq:        jreq.Seq,
		SentMillis: jreq.SentMillis,
		Status:     out.Status.String(),
	}
	if out.Status != StatusEpsilon {
		q := out.Q
		resp.Q = &q
	}
	return resp
}

// rejectJSON renders an explicit rejection.
func rejectJSON(jreq JSONRequest, code RejectCode) JSONResponse {
	return JSONResponse{
		Source:     jreq.Source,
		Seq:        jreq.Seq,
		SentMillis: jreq.SentMillis,
		Status:     "rejected",
		Reject:     code.String(),
	}
}

// admissionStatus maps a Submit error onto an HTTP status.
func admissionStatus(err error) int {
	switch rejectCodeFor(err) {
	case RejectOverloaded, RejectShed:
		return http.StatusTooManyRequests
	case RejectDraining, RejectUnavailable:
		return http.StatusServiceUnavailable
	case RejectDeadline:
		return http.StatusGatewayTimeout
	case RejectInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeJSON emits one JSON payload with the given status.
func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(payload)
}
