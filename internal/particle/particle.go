// Package particle implements the wire format of the paper's hardware
// platform: Particle Computer nodes broadcasting context over the
// AwareCon-style RF network. The AwarePen "was augmented with a Particle
// Computer as sensing and computing platform" (§5); every context event in
// the AwareOffice travels as one small radio packet.
//
// The format is a compact, fixed-layout frame:
//
//	offset size  field
//	0      1     sync byte (0xAA)
//	1      1     protocol version (1)
//	2      1     packet type
//	3      8     node identifier
//	11     2     sequence number (big endian)
//	13     4     send time, milliseconds (big endian)
//	17     1     context class identifier
//	18     2     quality, fixed-point q15 in [0,1]; 0xFFFF = no quality
//	20     2     CRC-16/CCITT over bytes 0..19
//
// Decoding verifies the sync byte, version, and CRC, so the lossy-medium
// simulation can flip bits and the receiver behaves like real hardware:
// corrupted frames are dropped, not misinterpreted.
package particle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Frame layout constants.
const (
	// SyncByte marks the start of every frame.
	SyncByte = 0xAA
	// Version is the protocol version this codec speaks.
	Version = 1
	// FrameLen is the fixed frame length in bytes.
	FrameLen = 22
	// noQuality is the wire encoding of "no quality annotation".
	noQuality = 0xFFFF
	// qualityScale is the q15 fixed-point scale.
	qualityScale = 0x7FFF
)

// PacketType identifies the payload kind.
type PacketType byte

// Packet types.
const (
	// TypeContext carries a context classification event.
	TypeContext PacketType = 0x01
	// TypeHeartbeat carries liveness only.
	TypeHeartbeat PacketType = 0x02
)

// Codec errors.
var (
	// ErrFrameLength reports a frame of the wrong size.
	ErrFrameLength = errors.New("particle: bad frame length")
	// ErrSync reports a missing sync byte.
	ErrSync = errors.New("particle: bad sync byte")
	// ErrVersion reports an unsupported protocol version.
	ErrVersion = errors.New("particle: unsupported version")
	// ErrCRC reports a checksum mismatch (corrupted frame).
	ErrCRC = errors.New("particle: CRC mismatch")
	// ErrNodeID reports an invalid node identifier.
	ErrNodeID = errors.New("particle: bad node id")
	// ErrQuality reports a quality outside [0,1].
	ErrQuality = errors.New("particle: quality outside [0,1]")
)

// NodeID is the 8-byte Particle node identifier (location-based in the
// original hardware).
type NodeID [8]byte

// NodeIDFromString derives a NodeID from a name, truncating or
// zero-padding to 8 bytes.
func NodeIDFromString(name string) NodeID {
	var id NodeID
	copy(id[:], name)
	return id
}

// String renders the identifier, trimming trailing zero bytes.
func (n NodeID) String() string {
	end := len(n)
	for end > 0 && n[end-1] == 0 {
		end--
	}
	return string(n[:end]) //lint:ignore hotpath-alloc the serving combiner calls this once per decision, and only while a DecisionObserver is set, to name the decision's source; the per-frame decision record (ROADMAP item 2) replaces that call
}

// ContextPacket is the decoded form of a context frame.
type ContextPacket struct {
	// Type is the packet type.
	Type PacketType
	// Node identifies the sender.
	Node NodeID
	// Seq is the sender's 16-bit sequence number.
	Seq uint16
	// SentMillis is the send time in milliseconds of virtual time.
	SentMillis uint32
	// ClassID is the context class identifier (sensor.Context's ID).
	ClassID byte
	// Quality is the CQM annotation; valid when HasQuality.
	Quality float64
	// HasQuality distinguishes annotated frames.
	HasQuality bool
}

// Encode serializes the packet into a fresh frame.
func Encode(p ContextPacket) ([]byte, error) {
	frame, err := AppendFrame(make([]byte, 0, FrameLen), p)
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// AppendFrame appends the packet's frame to dst and returns the extended
// slice; on error dst is returned unchanged. It allocates only when dst
// lacks FrameLen bytes of spare capacity.
func AppendFrame(dst []byte, p ContextPacket) ([]byte, error) {
	if p.HasQuality && (p.Quality < 0 || p.Quality > 1 || math.IsNaN(p.Quality)) {
		return dst, qualityError(p.Quality)
	}
	var frame [FrameLen]byte
	frame[0] = SyncByte
	frame[1] = Version
	frame[2] = byte(p.Type)
	copy(frame[3:11], p.Node[:])
	binary.BigEndian.PutUint16(frame[11:13], p.Seq)
	binary.BigEndian.PutUint32(frame[13:17], p.SentMillis)
	frame[17] = p.ClassID
	q := uint16(noQuality)
	if p.HasQuality {
		q = uint16(math.Round(p.Quality * qualityScale))
	}
	binary.BigEndian.PutUint16(frame[18:20], q)
	binary.BigEndian.PutUint16(frame[20:22], CRC16(frame[:20]))
	return append(dst, frame[:]...), nil //lint:ignore hotpath-alloc appends into the caller's buffer; the binary front's write buffer holds a whole window of answers
}

// qualityError reports a quality annotation outside [0,1]. It and
// frameError are kept out of line, so the boxing of their arguments is not
// inlined into the allocation-free encode and decode.
//
//cqm:coldpath
//go:noinline
func qualityError(q float64) error {
	return fmt.Errorf("%w: %v", ErrQuality, q)
}

// Decode parses and verifies a frame.
func Decode(frame []byte) (ContextPacket, error) {
	if len(frame) != FrameLen || frame[0] != SyncByte || frame[1] != Version ||
		binary.BigEndian.Uint16(frame[20:22]) != CRC16(frame[:20]) {
		return ContextPacket{}, frameError(frame)
	}
	p := ContextPacket{
		Type:       PacketType(frame[2]),
		Seq:        binary.BigEndian.Uint16(frame[11:13]),
		SentMillis: binary.BigEndian.Uint32(frame[13:17]),
		ClassID:    frame[17],
	}
	copy(p.Node[:], frame[3:11])
	q := binary.BigEndian.Uint16(frame[18:20])
	if q != noQuality {
		if q > qualityScale {
			return ContextPacket{}, frameError(frame)
		}
		p.Quality = float64(q) / qualityScale
		p.HasQuality = true
	}
	return p, nil
}

// frameError explains why Decode refused frame, running its checks again
// in order: length, sync byte, version, CRC, quality. Keeping the messages
// here leaves Decode's accepting path free of formatting.
//
//cqm:coldpath
//go:noinline
func frameError(frame []byte) error {
	switch {
	case len(frame) != FrameLen:
		return fmt.Errorf("%w: %d bytes, want %d", ErrFrameLength, len(frame), FrameLen)
	case frame[0] != SyncByte:
		return fmt.Errorf("%w: 0x%02X", ErrSync, frame[0])
	case frame[1] != Version:
		return fmt.Errorf("%w: %d", ErrVersion, frame[1])
	}
	if got, want := binary.BigEndian.Uint16(frame[20:22]), CRC16(frame[:20]); got != want {
		return fmt.Errorf("%w: got 0x%04X, want 0x%04X", ErrCRC, got, want)
	}
	return fmt.Errorf("%w: raw 0x%04X", ErrQuality, binary.BigEndian.Uint16(frame[18:20]))
}

// QualityResolution is the worst-case quantization error of the q15
// quality encoding.
const QualityResolution = 0.5 / qualityScale

// crcTables are the slicing-by-8 tables of CRC-16/CCITT: crcTables[0][b]
// is the remainder of byte value b shifted into the top of the register
// (one lookup replaces eight shift-and-xor steps), and crcTables[k][b] is
// that remainder carried through k further zero bytes, so the eight
// lookups of one 8-byte block can be combined with xor.
var crcTables = func() (t [8][256]uint16) {
	for b := range t[0] {
		crc := uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[0][b] = crc
	}
	for k := 1; k < len(t); k++ {
		for b := range t[k] {
			prev := t[k-1][b]
			t[k][b] = prev<<8 ^ t[0][byte(prev>>8)]
		}
	}
	return t
}()

// CRC16 computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over data,
// eight bytes per step (slicing-by-8), then one table lookup per byte of
// the tail. The 16-bit register folds into the first two bytes of each
// block, since this CRC shifts most-significant bit first.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	t := &crcTables
	for ; len(data) >= 8; data = data[8:] {
		crc = t[7][byte(crc>>8)^data[0]] ^ t[6][byte(crc)^data[1]] ^
			t[5][data[2]] ^ t[4][data[3]] ^ t[3][data[4]] ^
			t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]]
	}
	for _, b := range data {
		crc = crc<<8 ^ t[0][byte(crc>>8)^b]
	}
	return crc
}

// FlipBit returns a copy of frame with bit `bit` inverted — the corruption
// primitive for the bit-error simulations.
func FlipBit(frame []byte, bit int) []byte {
	out := make([]byte, len(frame))
	copy(out, frame)
	if bit >= 0 && bit < len(out)*8 {
		out[bit/8] ^= 1 << (bit % 8)
	}
	return out
}
