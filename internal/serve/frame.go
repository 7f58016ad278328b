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

// maxRequestLen is the longest possible encoded request.
const maxRequestLen = particle.FrameLen + 1 + deadlineFieldLen + 8*MaxCues + 2

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

// EncodeRequest serializes a scoring request; a non-zero DeadlineMillis
// selects the deadline-carrying wire form.
func EncodeRequest(r Request) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	typ := TypeScoreRequest
	deadline := 0
	if r.DeadlineMillis > 0 {
		typ = TypeScoreRequestDeadline
		deadline = deadlineFieldLen
	}
	header, err := particle.Encode(particle.ContextPacket{
		Type:       typ,
		Node:       r.Node,
		Seq:        r.Seq,
		SentMillis: r.SentMillis,
		ClassID:    r.ClassID,
	})
	if err != nil {
		return nil, err
	}
	out := make([]byte, particle.FrameLen+1+deadline+8*len(r.Cues)+2)
	copy(out, header)
	out[particle.FrameLen] = byte(len(r.Cues))
	if deadline > 0 {
		binary.BigEndian.PutUint32(out[particle.FrameLen+1:], r.DeadlineMillis)
	}
	for i, c := range r.Cues {
		binary.BigEndian.PutUint64(out[particle.FrameLen+1+deadline+8*i:], math.Float64bits(c))
	}
	tail := particle.FrameLen + 1 + deadline + 8*len(r.Cues)
	binary.BigEndian.PutUint16(out[tail:], particle.CRC16(out[particle.FrameLen:tail]))
	return out, nil
}

// DecodeRequest parses and verifies one complete request frame.
func DecodeRequest(data []byte) (Request, error) {
	if len(data) < particle.FrameLen+1 {
		return Request{}, fmt.Errorf("%w: %d bytes", ErrRequestLength, len(data))
	}
	pkt, err := particle.Decode(data[:particle.FrameLen])
	if err != nil {
		return Request{}, err
	}
	req, n, deadline, err := requestFromHeader(pkt, data[particle.FrameLen])
	if err != nil {
		return Request{}, err
	}
	if len(data) != particle.FrameLen+1+deadline+8*n+2 {
		return Request{}, fmt.Errorf("%w: %d bytes for %d cues", ErrRequestLength, len(data), n)
	}
	if err := decodeSection(&req, data[particle.FrameLen:], deadline); err != nil {
		return Request{}, err
	}
	return req, nil
}

// requestFromHeader validates the decoded header and cue count, returning
// the partially filled request and the width of the deadline field (0 for
// the plain request form).
func requestFromHeader(pkt particle.ContextPacket, count byte) (Request, int, int, error) {
	deadline := 0
	switch pkt.Type {
	case TypeScoreRequest:
	case TypeScoreRequestDeadline:
		deadline = deadlineFieldLen
	default:
		return Request{}, 0, 0, fmt.Errorf("%w: type 0x%02X", ErrRequestType, byte(pkt.Type))
	}
	if pkt.HasQuality {
		return Request{}, 0, 0, ErrRequestQuality
	}
	n := int(count)
	if n < 1 || n > MaxCues {
		return Request{}, 0, 0, fmt.Errorf("%w: %d", ErrCueCount, n)
	}
	return Request{
		Node:       pkt.Node,
		Seq:        pkt.Seq,
		SentMillis: pkt.SentMillis,
		ClassID:    pkt.ClassID,
	}, n, deadline, nil
}

// decodeSection verifies the post-header section (count byte, optional
// deadline budget, cues, CRC) and fills req.Cues and req.DeadlineMillis.
// section starts at the count byte and spans exactly 1+deadline+8n+2
// bytes, with deadline the width reported by requestFromHeader.
func decodeSection(req *Request, section []byte, deadline int) error {
	n := int(section[0])
	body := section[:1+deadline+8*n]
	if got, want := binary.BigEndian.Uint16(section[len(body):]), particle.CRC16(body); got != want {
		return fmt.Errorf("%w: got 0x%04X, want 0x%04X", ErrCueCRC, got, want)
	}
	if deadline > 0 {
		req.DeadlineMillis = binary.BigEndian.Uint32(body[1:])
	}
	cues := make([]float64, n)
	for i := range cues {
		c := math.Float64frombits(binary.BigEndian.Uint64(body[1+deadline+8*i:]))
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: cue %d is %v", ErrCueValue, i, c)
		}
		cues[i] = c
	}
	req.Cues = cues
	return nil
}

// ReadRequest reads one self-delimiting request from a byte stream: the
// fixed header, the cue count, then exactly the declared cue (and, for the
// deadline form, budget) section. It returns the decoded request; io
// errors pass through (io.EOF at a clean frame boundary,
// io.ErrUnexpectedEOF inside a frame).
func ReadRequest(r io.Reader) (Request, error) {
	var buf [maxRequestLen]byte
	if _, err := io.ReadFull(r, buf[:particle.FrameLen+1]); err != nil {
		return Request{}, err
	}
	pkt, err := particle.Decode(buf[:particle.FrameLen])
	if err != nil {
		return Request{}, err
	}
	req, n, deadline, err := requestFromHeader(pkt, buf[particle.FrameLen])
	if err != nil {
		return Request{}, err
	}
	rest := deadline + 8*n + 2
	if _, err := io.ReadFull(r, buf[particle.FrameLen+1:particle.FrameLen+1+rest]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Request{}, err
	}
	if err := decodeSection(&req, buf[particle.FrameLen:particle.FrameLen+1+rest], deadline); err != nil {
		return Request{}, err
	}
	return req, nil
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
	return particle.Encode(pkt)
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
		return Response{}, fmt.Errorf("%w: type 0x%02X", ErrRequestType, byte(pkt.Type))
	}
	return resp, nil
}
