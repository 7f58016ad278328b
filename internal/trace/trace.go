// Package trace records and replays accelerometer streams. The AwareOffice
// methodology depends on recorded sessions — the paper's training, check
// and test sets were captured from the live pen — so the library supports
// persisting a labelled recording and replaying it bit-for-bit later:
// train on Monday's session, evaluate tomorrow's model change on exactly
// the same data.
//
// The format is a compact binary stream:
//
//	magic   4 bytes  "CQTR"
//	version 1 byte   (1)
//	count   4 bytes  big-endian reading count
//	flags   1 byte   reserved (0)
//	readings, each 33 bytes:
//	    T     float64 (IEEE 754 bits, big endian)
//	    X,Y,Z float64
//	    truth 1 byte  (sensor.Context identifier)
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cqm/internal/sensor"
)

// Format constants.
const (
	magic       = "CQTR"
	version     = 1
	headerLen   = 10
	readingLen  = 33
	maxReadings = 1 << 26 // 64 Mi readings ≈ a week at 100 Hz; sanity cap

	// initialAlloc bounds the slice capacity allocated up front from the
	// header's count field — about 64 KiB of readings. The count is
	// attacker-controlled (a corrupt or hostile 4-byte field), so a larger
	// promise must be earned by actually delivering bytes; the slice grows
	// by appending past this point.
	initialAlloc = 64 * 1024 / readingLen
)

// Codec errors.
var (
	// ErrMagic reports a stream that is not a trace.
	ErrMagic = errors.New("trace: bad magic")
	// ErrVersion reports an unsupported trace version.
	ErrVersion = errors.New("trace: unsupported version")
	// ErrTruncated reports a stream shorter than its header promises.
	ErrTruncated = errors.New("trace: truncated stream")
	// ErrTooLarge reports an implausibly large reading count.
	ErrTooLarge = errors.New("trace: reading count exceeds sanity cap")
	// ErrEmpty reports writing an empty recording.
	ErrEmpty = errors.New("trace: empty recording")
)

// Write serializes the readings to w.
func Write(w io.Writer, readings []sensor.Reading) error {
	if len(readings) == 0 {
		return ErrEmpty
	}
	if len(readings) > maxReadings {
		return fmt.Errorf("%w: %d readings", ErrTooLarge, len(readings))
	}
	header := make([]byte, headerLen)
	copy(header, magic)
	header[4] = version
	binary.BigEndian.PutUint32(header[5:9], uint32(len(readings)))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	buf := make([]byte, readingLen)
	for i, r := range readings {
		binary.BigEndian.PutUint64(buf[0:8], math.Float64bits(r.T))
		binary.BigEndian.PutUint64(buf[8:16], math.Float64bits(r.Accel.X))
		binary.BigEndian.PutUint64(buf[16:24], math.Float64bits(r.Accel.Y))
		binary.BigEndian.PutUint64(buf[24:32], math.Float64bits(r.Accel.Z))
		buf[32] = byte(r.Truth.ID())
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("trace: writing reading %d: %w", i, err)
		}
	}
	return nil
}

// Read parses a trace stream.
func Read(r io.Reader) ([]sensor.Reading, error) {
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if string(header[:4]) != magic {
		return nil, fmt.Errorf("%w: %q", ErrMagic, header[:4])
	}
	if header[4] != version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, header[4])
	}
	count := binary.BigEndian.Uint32(header[5:9])
	if count > maxReadings {
		return nil, fmt.Errorf("%w: %d", ErrTooLarge, count)
	}
	out := make([]sensor.Reading, 0, min(count, initialAlloc))
	buf := make([]byte, readingLen)
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: reading %d: %v", ErrTruncated, i, err)
		}
		out = append(out, sensor.Reading{
			T: math.Float64frombits(binary.BigEndian.Uint64(buf[0:8])),
			Accel: sensor.Accel{
				X: math.Float64frombits(binary.BigEndian.Uint64(buf[8:16])),
				Y: math.Float64frombits(binary.BigEndian.Uint64(buf[16:24])),
				Z: math.Float64frombits(binary.BigEndian.Uint64(buf[24:32])),
			},
			Truth: sensor.ContextByID(int(buf[32])),
		})
	}
	return out, nil
}
