package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cqm/internal/particle"
)

// Wire format of a scoring request:
//
//	offset            size  field
//	0                 22    particle frame (header: sync, version, type,
//	                        node, seq, send time, class id, no quality)
//	22                1     cue count n (1..MaxCues)
//	23                4     deadline budget in milliseconds, big endian
//	                        (TypeScoreRequestDeadline only; 0 = no
//	                        deadline: the frame is scored like a plain
//	                        request)
//	23|27             8n    cues, IEEE-754 float64 big endian
//	…+8n              2     CRC-16/CCITT over every byte after the header
//
// A TypeScoreRequest frame has no deadline field: its cue section starts
// right after the count byte, which keeps the original wire format
// bit-compatible. A TypeScoreRequestDeadline frame inserts the 4-byte
// budget between the count and the cues; the budget is relative (time
// remaining at send), so it survives clock skew between client and server
// — the server converts it to an absolute expiry on arrival.
//
// A response is a bare 22-byte particle frame: the packet type carries the
// decision, the quality field carries q (quantized to the codec's q15
// resolution), and node, seq, and send time echo the request so a client
// can match responses to in-flight requests on a pipelined connection.

// Packet types of the serving protocol, occupying a disjoint range above
// the particle sensor types.
const (
	// TypeScoreRequest asks the server to score (cues, class).
	TypeScoreRequest particle.PacketType = 0x10
	// TypeAccepted reports q > threshold; the quality field carries q.
	TypeAccepted particle.PacketType = 0x11
	// TypeDiscarded reports q <= threshold; the quality field carries q.
	TypeDiscarded particle.PacketType = 0x12
	// TypeEpsilon reports the ε error state: quality not computable.
	TypeEpsilon particle.PacketType = 0x13
	// TypeRejected reports an unscored request; the class-id field
	// carries the RejectCode.
	TypeRejected particle.PacketType = 0x14
	// TypeScoreRequestDeadline is a score request carrying a per-request
	// deadline budget; the server rejects it (RejectDeadline) instead of
	// scoring it once the budget is spent.
	TypeScoreRequestDeadline particle.PacketType = 0x15
)

// MaxCues bounds the cue vector a request may carry.
const MaxCues = 16

// deadlineFieldLen is the width of the deadline budget field.
const deadlineFieldLen = 4

// headLen is the length of a request's fixed head: the particle header
// and the cue count.
const headLen = particle.FrameLen + 1

// maxRequestLen is the longest possible encoded request.
const maxRequestLen = headLen + deadlineFieldLen + 8*MaxCues + 2

// Typed protocol errors of the serving frame codec. Header errors from
// the particle codec (particle.ErrSync, particle.ErrCRC, …) pass through
// wrapped, so both families are matchable with errors.Is.
var (
	// ErrRequestLength reports a request too short or too long for its
	// declared cue count.
	ErrRequestLength = errors.New("serve: bad request length")
	// ErrRequestType reports a header whose packet type is not
	// TypeScoreRequest.
	ErrRequestType = errors.New("serve: not a score request")
	// ErrCueCount reports a cue count outside 1..MaxCues.
	ErrCueCount = errors.New("serve: cue count outside range")
	// ErrCueCRC reports a corrupted cue section.
	ErrCueCRC = errors.New("serve: cue section CRC mismatch")
	// ErrCueValue reports a non-finite cue.
	ErrCueValue = errors.New("serve: non-finite cue")
	// ErrRequestQuality reports a request whose header carries a quality
	// annotation (requests ask for quality; they do not bring one).
	ErrRequestQuality = errors.New("serve: request carries a quality annotation")
)

// RejectCode explains an explicit rejection in a TypeRejected response.
type RejectCode byte

// Reject codes.
const (
	// RejectNone is the zero value (not a rejection).
	RejectNone RejectCode = 0
	// RejectOverloaded reports a full shard queue (back off and retry).
	RejectOverloaded RejectCode = 1
	// RejectDraining reports a server refusing new work during shutdown.
	RejectDraining RejectCode = 2
	// RejectUnavailable reports that no model is loaded yet.
	RejectUnavailable RejectCode = 3
	// RejectProtocol reports a malformed request (binary front only:
	// the reject echoes what little of the header could be read).
	RejectProtocol RejectCode = 4
	// RejectInternal reports a scoring failure that is not ε.
	RejectInternal RejectCode = 5
	// RejectDeadline reports an admitted request whose deadline budget
	// expired before a ScoreBatch slot was spent on it.
	RejectDeadline RejectCode = 6
	// RejectShed reports an admitted request dropped by adaptive load
	// shedding: queue sojourn stayed above the CoDel target for a full
	// interval, so the server trades this request for queue health.
	RejectShed RejectCode = 7
)

// String names the code for logs and JSON payloads.
func (c RejectCode) String() string {
	switch c {
	case RejectOverloaded:
		return "overloaded"
	case RejectDraining:
		return "draining"
	case RejectUnavailable:
		return "unavailable"
	case RejectProtocol:
		return "protocol"
	case RejectInternal:
		return "internal"
	case RejectDeadline:
		return "deadline"
	case RejectShed:
		return "shed"
	default:
		return fmt.Sprintf("RejectCode(%d)", byte(c))
	}
}

// Request is one decoded scoring request.
type Request struct {
	// Node identifies the producing source; it keys the shard map.
	Node particle.NodeID
	// Seq is the client's per-source sequence number, echoed back.
	Seq uint16
	// SentMillis is the client's send stamp, echoed back (the server
	// never interprets it — timing belongs to the client).
	SentMillis uint32
	// ClassID is the classifier output c to score.
	ClassID byte
	// Cues is the classifier input v_C (1..MaxCues finite values).
	Cues []float64
	// DeadlineMillis is the request's remaining deadline budget in
	// milliseconds at send time; 0 means no deadline. A non-zero budget
	// selects the TypeScoreRequestDeadline wire form and asks the server
	// to reject (RejectDeadline) rather than score once it is spent.
	DeadlineMillis uint32
}

// Validate checks the request against the codec's bounds.
func (r *Request) Validate() error {
	if len(r.Cues) < 1 || len(r.Cues) > MaxCues {
		return fmt.Errorf("%w: %d cues", ErrCueCount, len(r.Cues))
	}
	for i, c := range r.Cues {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: cue %d is %v", ErrCueValue, i, c)
		}
	}
	return nil
}

// requestSize is the encoded length of a request with n cues and a deadline
// field deadline bytes wide.
func requestSize(n, deadline int) int {
	return headLen + deadline + 8*n + 2
}

// EncodeRequest serializes a scoring request; a non-zero DeadlineMillis
// selects the deadline-carrying wire form.
func EncodeRequest(r Request) ([]byte, error) {
	deadline := 0
	if r.DeadlineMillis > 0 {
		deadline = deadlineFieldLen
	}
	out, err := AppendRequest(make([]byte, 0, requestSize(len(r.Cues), deadline)), r)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendRequest appends r's encoding to dst and returns the extended
// slice; on error dst is returned unchanged. A non-zero DeadlineMillis
// selects the deadline-carrying wire form.
func AppendRequest(dst []byte, r Request) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return dst, err
	}
	typ := TypeScoreRequest
	if r.DeadlineMillis > 0 {
		typ = TypeScoreRequestDeadline
	}
	out, err := particle.AppendFrame(dst, particle.ContextPacket{
		Type:       typ,
		Node:       r.Node,
		Seq:        r.Seq,
		SentMillis: r.SentMillis,
		ClassID:    r.ClassID,
	})
	if err != nil {
		return dst, err
	}
	section := len(out)
	out = append(out, byte(len(r.Cues)))
	if r.DeadlineMillis > 0 {
		out = binary.BigEndian.AppendUint32(out, r.DeadlineMillis)
	}
	for _, c := range r.Cues {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(c))
	}
	return binary.BigEndian.AppendUint16(out, particle.CRC16(out[section:])), nil
}

// DecodeRequest parses and verifies one complete request frame.
func DecodeRequest(data []byte) (Request, error) {
	if len(data) < headLen {
		return Request{}, requestLengthError(len(data), -1)
	}
	var req Request
	n, deadline, err := requestFromHeader(&req, data[:headLen])
	if err != nil {
		return Request{}, err
	}
	if len(data) != requestSize(n, deadline) {
		return Request{}, requestLengthError(len(data), n)
	}
	if err := decodeSection(&req, make([]float64, n), data[particle.FrameLen:], deadline); err != nil {
		return Request{}, err
	}
	return req, nil
}

// requestFromHeader validates a request's head (the particle header and
// the cue count) and, only when it is valid, fills req's identity fields
// and clears the rest. It returns the cue count and the width of the
// deadline field (0 for the plain request form).
func requestFromHeader(req *Request, head []byte) (n, deadline int, err error) {
	pkt, err := particle.Decode(head[:particle.FrameLen])
	if err != nil {
		return 0, 0, err
	}
	switch pkt.Type {
	case TypeScoreRequest:
	case TypeScoreRequestDeadline:
		deadline = deadlineFieldLen
	default:
		return 0, 0, typeError(pkt.Type)
	}
	if pkt.HasQuality {
		return 0, 0, ErrRequestQuality
	}
	n = int(head[particle.FrameLen])
	if n < 1 || n > MaxCues {
		return 0, 0, cueCountError(n)
	}
	*req = Request{
		Node:       pkt.Node,
		Seq:        pkt.Seq,
		SentMillis: pkt.SentMillis,
		ClassID:    pkt.ClassID,
	}
	return n, deadline, nil
}

// decodeSection verifies the post-header section (count byte, optional
// deadline budget, cues, CRC), decodes the n cues into cues (which has
// room for them) and points req.Cues at them, and fills
// req.DeadlineMillis. section starts at the count byte and spans exactly
// 1+deadline+8n+2 bytes, with deadline the width reported by
// requestFromHeader.
func decodeSection(req *Request, cues []float64, section []byte, deadline int) error {
	n := int(section[0])
	body := section[:1+deadline+8*n]
	if got, want := binary.BigEndian.Uint16(section[len(body):]), particle.CRC16(body); got != want {
		return cueCRCError(got, want)
	}
	if deadline > 0 {
		req.DeadlineMillis = binary.BigEndian.Uint32(body[1:])
	}
	for i := 0; i < n; i++ {
		c := math.Float64frombits(binary.BigEndian.Uint64(body[1+deadline+8*i:]))
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return cueValueError(i, c)
		}
		cues[i] = c
	}
	req.Cues = cues[:n:n]
	return nil
}

// ReadRequest reads one self-delimiting request from a byte stream: the
// fixed header, the cue count, then exactly the declared cue (and, for the
// deadline form, budget) section. It returns the decoded request; io
// errors pass through (io.EOF at a clean frame boundary,
// io.ErrUnexpectedEOF inside a frame). It reads no byte past the frame.
func ReadRequest(r io.Reader) (Request, error) {
	var buf [maxRequestLen]byte
	if _, err := io.ReadFull(r, buf[:headLen]); err != nil {
		return Request{}, err
	}
	var req Request
	n, deadline, err := requestFromHeader(&req, buf[:headLen])
	if err != nil {
		return Request{}, err
	}
	size := requestSize(n, deadline)
	if _, err := io.ReadFull(r, buf[headLen:size]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Request{}, err
	}
	if err := decodeSection(&req, make([]float64, n), buf[particle.FrameLen:size], deadline); err != nil {
		return Request{}, err
	}
	return req, nil
}

// The codec's error constructors. Each formats its message off the
// accepting path and is kept out of line, so the boxing of its arguments
// is not inlined into the binary front's allocation-free per-frame decode.

// requestLengthError reports a request of the wrong length; n < 0 means
// the frame ended before its cue count.
//
//cqm:coldpath
//go:noinline
func requestLengthError(size, n int) error {
	if n < 0 {
		return fmt.Errorf("%w: %d bytes", ErrRequestLength, size)
	}
	return fmt.Errorf("%w: %d bytes for %d cues", ErrRequestLength, size, n)
}

// typeError reports a packet type the decoder does not expect.
//
//cqm:coldpath
//go:noinline
func typeError(t particle.PacketType) error {
	return fmt.Errorf("%w: type 0x%02X", ErrRequestType, byte(t))
}

// cueCountError reports a cue count outside 1..MaxCues.
//
//cqm:coldpath
//go:noinline
func cueCountError(n int) error {
	return fmt.Errorf("%w: %d", ErrCueCount, n)
}

// cueCRCError reports a corrupted cue section.
//
//cqm:coldpath
//go:noinline
func cueCRCError(got, want uint16) error {
	return fmt.Errorf("%w: got 0x%04X, want 0x%04X", ErrCueCRC, got, want)
}

// cueValueError reports a non-finite cue.
//
//cqm:coldpath
//go:noinline
func cueValueError(i int, c float64) error {
	return fmt.Errorf("%w: cue %d is %v", ErrCueValue, i, c)
}

// Status is the serving outcome of one admitted request.
type Status byte

// Statuses.
const (
	// StatusAccepted reports q > threshold.
	StatusAccepted Status = iota
	// StatusDiscarded reports q <= threshold.
	StatusDiscarded
	// StatusEpsilon reports the ε error state.
	StatusEpsilon
)

// String names the status for logs and JSON payloads.
func (s Status) String() string {
	switch s {
	case StatusAccepted:
		return "accepted"
	case StatusDiscarded:
		return "discarded"
	case StatusEpsilon:
		return "epsilon"
	default:
		return fmt.Sprintf("Status(%d)", byte(s))
	}
}

// Response is one decoded scoring response.
type Response struct {
	// Node, Seq, and SentMillis echo the request.
	Node       particle.NodeID
	Seq        uint16
	SentMillis uint32
	// Rejected distinguishes explicit rejections from scored outcomes.
	Rejected bool
	// Reject explains a rejection (valid when Rejected).
	Reject RejectCode
	// Status is the scoring outcome (valid when !Rejected).
	Status Status
	// Q is the quality value (valid for StatusAccepted and
	// StatusDiscarded; quantized to particle.QualityResolution on the
	// wire).
	Q float64
}

// EncodeResponse serializes a response as a bare particle frame.
func EncodeResponse(r Response) ([]byte, error) {
	frame, err := AppendResponse(make([]byte, 0, particle.FrameLen), r)
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// AppendResponse appends r's frame to dst and returns the extended slice;
// on error dst is returned unchanged.
func AppendResponse(dst []byte, r Response) ([]byte, error) {
	pkt := particle.ContextPacket{
		Node:       r.Node,
		Seq:        r.Seq,
		SentMillis: r.SentMillis,
	}
	switch {
	case r.Rejected:
		pkt.Type = TypeRejected
		pkt.ClassID = byte(r.Reject)
	case r.Status == StatusEpsilon:
		pkt.Type = TypeEpsilon
	case r.Status == StatusAccepted:
		pkt.Type = TypeAccepted
		pkt.Quality = r.Q
		pkt.HasQuality = true
	default:
		pkt.Type = TypeDiscarded
		pkt.Quality = r.Q
		pkt.HasQuality = true
	}
	return particle.AppendFrame(dst, pkt)
}

// DecodeResponse parses a response frame.
func DecodeResponse(frame []byte) (Response, error) {
	pkt, err := particle.Decode(frame)
	if err != nil {
		return Response{}, err
	}
	resp := Response{
		Node:       pkt.Node,
		Seq:        pkt.Seq,
		SentMillis: pkt.SentMillis,
	}
	switch pkt.Type {
	case TypeAccepted:
		resp.Status = StatusAccepted
		resp.Q = pkt.Quality
	case TypeDiscarded:
		resp.Status = StatusDiscarded
		resp.Q = pkt.Quality
	case TypeEpsilon:
		resp.Status = StatusEpsilon
	case TypeRejected:
		resp.Rejected = true
		resp.Reject = RejectCode(pkt.ClassID)
	default:
		return Response{}, typeError(pkt.Type)
	}
	return resp, nil
}
