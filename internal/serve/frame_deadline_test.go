package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"cqm/internal/particle"
)

func TestDeadlineRequestRoundTrip(t *testing.T) {
	req := penRequest(3, 9, 0.25)
	req.DeadlineMillis = 1500
	frame, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := particle.PacketType(frame[2]); got != TypeScoreRequestDeadline {
		// Offset 2 is the packet-type byte of the particle header.
		t.Fatalf("wire type 0x%02X, want 0x%02X", byte(got), byte(TypeScoreRequestDeadline))
	}
	if want := particle.FrameLen + 1 + deadlineFieldLen + 8*len(req.Cues) + 2; len(frame) != want {
		t.Fatalf("frame length %d, want %d", len(frame), want)
	}

	dec, err := DecodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if dec.DeadlineMillis != 1500 {
		t.Fatalf("decoded budget %d, want 1500", dec.DeadlineMillis)
	}
	if dec.Node != req.Node || dec.Seq != req.Seq || len(dec.Cues) != len(req.Cues) {
		t.Fatalf("decoded %+v, want %+v", dec, req)
	}

	// The stream reader must handle the wider section too.
	read, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if read.DeadlineMillis != 1500 {
		t.Fatalf("stream-read budget %d, want 1500", read.DeadlineMillis)
	}
}

func TestPlainRequestStaysBitCompatible(t *testing.T) {
	// A zero budget must select the original wire form: same type byte,
	// same length, no deadline field — old clients and captures stay valid.
	req := penRequest(3, 9, 0.25)
	frame, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := particle.PacketType(frame[2]); got != TypeScoreRequest {
		t.Fatalf("wire type 0x%02X, want 0x%02X", byte(got), byte(TypeScoreRequest))
	}
	if want := particle.FrameLen + 1 + 8*len(req.Cues) + 2; len(frame) != want {
		t.Fatalf("frame length %d, want %d", len(frame), want)
	}
	dec, err := DecodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if dec.DeadlineMillis != 0 {
		t.Fatalf("plain request decoded budget %d", dec.DeadlineMillis)
	}
}

func TestDeadlineFieldCoveredByCRC(t *testing.T) {
	req := penRequest(1, 1, 0.5)
	req.DeadlineMillis = 250
	frame, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	frame[particle.FrameLen+2] ^= 0x01 // flip a budget byte
	if _, err := DecodeRequest(frame); !errors.Is(err, ErrCueCRC) {
		t.Fatalf("corrupted budget decoded: %v", err)
	}
}

func TestZeroBudgetDeadlineFrameIsScored(t *testing.T) {
	// A 0x15 frame whose budget field is 0 means no deadline, not an
	// expired one: it decodes to DeadlineMillis 0 and is scored.
	req := penRequest(2, 7, 0.5)
	req.DeadlineMillis = 1
	frame, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(frame[particle.FrameLen+1:], 0)
	crc := len(frame) - 2
	binary.BigEndian.PutUint16(frame[crc:], particle.CRC16(frame[particle.FrameLen:crc]))
	if got := particle.PacketType(frame[2]); got != TypeScoreRequestDeadline {
		t.Fatalf("wire type 0x%02X, want 0x%02X", byte(got), byte(TypeScoreRequestDeadline))
	}

	dec, err := DecodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if dec.DeadlineMillis != 0 {
		t.Fatalf("decoded budget %d, want 0", dec.DeadlineMillis)
	}
	srv := biasServer(t, 0.75, Config{Threshold: 0.5})
	resp, err := DecodeResponse(answerFrame(srv, dec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rejected || resp.Status != StatusAccepted {
		t.Fatalf("zero-budget frame answered %+v, want accepted", resp)
	}
}
