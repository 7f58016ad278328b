package particle

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// seedFrames builds the fuzz corpus: a valid frame plus the mutations the
// fault harness produces in flight — truncation, version skew, bit flips.
func seedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	valid, err := Encode(ContextPacket{
		Type:       TypeContext,
		Node:       NodeIDFromString("awarepen"),
		Seq:        7,
		SentMillis: 1234,
		ClassID:    2,
		Quality:    0.5,
		HasQuality: true,
	})
	if err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	truncated := valid[:FrameLen-3]
	skewed := append([]byte(nil), valid...)
	skewed[1] = Version + 1
	binary.BigEndian.PutUint16(skewed[20:22], CRC16(skewed[:20]))
	flipped := FlipBit(valid, 42)
	noQ, err := Encode(ContextPacket{Type: TypeHeartbeat, Node: NodeIDFromString("n"), Seq: 65535})
	if err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return [][]byte{valid, truncated, skewed, flipped, noQ, {}, {SyncByte}}
}

// FuzzFrameDecode throws arbitrary byte strings at the frame decoder: it
// must never panic, and any frame it accepts must re-encode to the exact
// same bytes (the codec is bijective on its accepted set).
func FuzzFrameDecode(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := Decode(frame)
		if err != nil {
			return
		}
		if p.HasQuality && (p.Quality < 0 || p.Quality > 1) {
			t.Fatalf("decoded quality %v outside [0,1]", p.Quality)
		}
		re, err := Encode(p)
		if err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		if !bytes.Equal(re, frame) {
			t.Fatalf("round trip diverged:\n in %x\nout %x", frame, re)
		}
	})
}

// FuzzCRC16 checks the table-driven CRC16 against the bitwise reference on
// arbitrary input.
func FuzzCRC16(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	f.Add([]byte("123456789"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Fatalf("CRC16(% x) = 0x%04X, bitwise reference 0x%04X", data, got, want)
		}
	})
}
