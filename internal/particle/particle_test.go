package particle

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func samplePacket() ContextPacket {
	return ContextPacket{
		Type:       TypeContext,
		Node:       NodeIDFromString("awarepen"),
		Seq:        1234,
		SentMillis: 567890,
		ClassID:    2,
		Quality:    0.8112,
		HasQuality: true,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := samplePacket()
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != FrameLen {
		t.Fatalf("frame length %d, want %d", len(frame), FrameLen)
	}
	back, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != p.Type || back.Node != p.Node || back.Seq != p.Seq ||
		back.SentMillis != p.SentMillis || back.ClassID != p.ClassID {
		t.Errorf("round trip changed fields: %+v vs %+v", back, p)
	}
	if !back.HasQuality {
		t.Fatal("quality annotation lost")
	}
	if math.Abs(back.Quality-p.Quality) > 2*QualityResolution {
		t.Errorf("quality %v -> %v beyond fixed-point resolution", p.Quality, back.Quality)
	}
}

func TestEncodeDecodeNoQuality(t *testing.T) {
	p := samplePacket()
	p.HasQuality = false
	p.Quality = 0
	frame, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if back.HasQuality {
		t.Error("phantom quality appeared")
	}
}

func TestEncodeRejectsBadQuality(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		p := samplePacket()
		p.Quality = q
		if _, err := Encode(p); !errors.Is(err, ErrQuality) {
			t.Errorf("quality %v: err = %v", q, err)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := Encode(samplePacket())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("short", func(t *testing.T) {
		if _, err := Decode(good[:10]); !errors.Is(err, ErrFrameLength) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad sync", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 0x00
		if _, err := Decode(bad); !errors.Is(err, ErrSync) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[1] = 99
		// Re-CRC so only the version is wrong.
		crc := CRC16(bad[:20])
		bad[20] = byte(crc >> 8)
		bad[21] = byte(crc)
		if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("corrupted payload", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[17] ^= 0x01
		if _, err := Decode(bad); !errors.Is(err, ErrCRC) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestEveryBitFlipIsDetected(t *testing.T) {
	// Single-bit corruption anywhere in the frame must never decode
	// silently: either the sync/version check or the CRC catches it.
	good, err := Encode(samplePacket())
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < FrameLen*8; bit++ {
		if _, err := Decode(FlipBit(good, bit)); err == nil {
			t.Fatalf("bit flip at %d decoded cleanly", bit)
		}
	}
}

func TestCRC16KnownValue(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1 — the standard check value.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16 = 0x%04X, want 0x29B1", got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Errorf("CRC16(empty) = 0x%04X, want init value", got)
	}
}

// crc16Bitwise is the bit-at-a-time CRC-16/CCITT-FALSE the table-driven
// CRC16 replaced: the reference it must agree with on every input.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC16MatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 256)
	rng.Read(random)
	ones := bytes.Repeat([]byte{0xFF}, 256)
	for n := 0; n <= 256; n++ {
		for _, data := range [][]byte{random[:n], ones[:n]} {
			if got, want := CRC16(data), crc16Bitwise(data); got != want {
				t.Fatalf("CRC16(% x) = 0x%04X, bitwise reference 0x%04X", data, got, want)
			}
		}
	}
}

// TestCRC16EveryStartOffset checks CRC16 against the bitwise reference on
// slices that start at each offset 0–7 of one buffer, so that every
// alignment of the 8-byte blocks against the buffer is covered, at lengths
// that reach the block loop and the byte-wise tail.
func TestCRC16EveryStartOffset(t *testing.T) {
	buf := make([]byte, 8+64)
	rand.New(rand.NewSource(2)).Read(buf)
	for off := 0; off < 8; off++ {
		for _, n := range []int{0, 1, 7, 8, 9, 16, 20, 25, 63, 64} {
			data := buf[off : off+n]
			if got, want := CRC16(data), crc16Bitwise(data); got != want {
				t.Fatalf("offset %d, %d bytes: CRC16 = 0x%04X, bitwise reference 0x%04X", off, n, got, want)
			}
		}
	}
}

func TestAppendFrameMatchesEncode(t *testing.T) {
	for _, p := range []ContextPacket{samplePacket(), {Type: TypeHeartbeat, Node: NodeIDFromString("n"), Seq: 65535}} {
		want, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte{1, 2, 3}
		got, err := AppendFrame(prefix, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("AppendFrame = % x, want % x after the prefix", got, want)
		}
	}
	bad := samplePacket()
	bad.Quality = 1.5
	dst := []byte{9}
	if got, err := AppendFrame(dst, bad); !errors.Is(err, ErrQuality) || len(got) != 1 {
		t.Fatalf("AppendFrame(bad quality) = % x, %v; want dst unchanged and ErrQuality", got, err)
	}
	buf := make([]byte, 0, 4*FrameLen)
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendFrame(buf[:0], samplePacket()) }); n != 0 {
		t.Errorf("AppendFrame into spare capacity: %v allocs, want 0", n)
	}
}

// crcSink keeps BenchmarkCRC16's result live.
var crcSink uint16

// BenchmarkCRC16 times the checksum at the sizes the binary front runs it
// on: a 20-byte frame header, a 25-byte three-cue request section (count
// byte, three cues), and the largest section, 133 bytes (count byte,
// deadline, 16 cues).
func BenchmarkCRC16(b *testing.B) {
	for _, n := range []int{20, 25, 1 + 4 + 8*16} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			data := make([]byte, n)
			rand.New(rand.NewSource(1)).Read(data)
			b.ReportAllocs()
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				crcSink = CRC16(data)
			}
		})
	}
}

func TestNodeIDString(t *testing.T) {
	if got := NodeIDFromString("pen-1").String(); got != "pen-1" {
		t.Errorf("NodeID round trip = %q", got)
	}
	long := NodeIDFromString("a-very-long-appliance-name")
	if len(long.String()) != 8 {
		t.Errorf("long name not truncated: %q", long.String())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := ContextPacket{
			Type:       PacketType(1 + r.Intn(2)),
			Seq:        uint16(r.Intn(65536)),
			SentMillis: r.Uint32(),
			ClassID:    byte(r.Intn(4)),
			HasQuality: r.Intn(2) == 0,
		}
		r.Read(p.Node[:])
		if p.HasQuality {
			p.Quality = r.Float64()
		}
		frame, err := Encode(p)
		if err != nil {
			return false
		}
		back, err := Decode(frame)
		if err != nil {
			return false
		}
		if back.HasQuality != p.HasQuality {
			return false
		}
		if p.HasQuality && math.Abs(back.Quality-p.Quality) > 2*QualityResolution {
			return false
		}
		return back.Node == p.Node && back.Seq == p.Seq && back.ClassID == p.ClassID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	p := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeErrorTable drives every typed decode error from one table, so
// a new error class cannot ship without a row proving a frame triggers it.
// The reencode hook repairs the CRC after a header mutation, isolating the
// mutation under test from the checksum that would otherwise mask it.
func TestDecodeErrorTable(t *testing.T) {
	reCRC := func(frame []byte) []byte {
		crc := CRC16(frame[:20])
		frame[20] = byte(crc >> 8)
		frame[21] = byte(crc)
		return frame
	}
	cases := []struct {
		name   string
		mutate func(frame []byte) []byte
		want   error
	}{
		{"nil frame", func(f []byte) []byte { return nil }, ErrFrameLength},
		{"empty frame", func(f []byte) []byte { return f[:0] }, ErrFrameLength},
		{"one short", func(f []byte) []byte { return f[:FrameLen-1] }, ErrFrameLength},
		{"one long", func(f []byte) []byte { return append(f, 0x00) }, ErrFrameLength},
		{"sync zero", func(f []byte) []byte { f[0] = 0x00; return f }, ErrSync},
		{"sync inverted", func(f []byte) []byte { f[0] = ^f[0]; return reCRC(f) }, ErrSync},
		{"version zero", func(f []byte) []byte { f[1] = 0; return reCRC(f) }, ErrVersion},
		{"version future", func(f []byte) []byte { f[1] = Version + 1; return reCRC(f) }, ErrVersion},
		{"payload bit flip", func(f []byte) []byte { f[17] ^= 0x01; return f }, ErrCRC},
		{"node bit flip", func(f []byte) []byte { f[7] ^= 0x80; return f }, ErrCRC},
		{"checksum bit flip", func(f []byte) []byte { f[21] ^= 0x01; return f }, ErrCRC},
		{"quality above scale", func(f []byte) []byte {
			// 0x8000: past the q15 designated one but not the no-quality
			// sentinel — the only reachable ErrQuality on decode.
			f[18], f[19] = 0x80, 0x00
			return reCRC(f)
		}, ErrQuality},
		{"quality near sentinel", func(f []byte) []byte {
			f[18], f[19] = 0xFF, 0xFE
			return reCRC(f)
		}, ErrQuality},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			good, err := Encode(samplePacket())
			if err != nil {
				t.Fatal(err)
			}
			frame := tc.mutate(good)
			if _, err := Decode(frame); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			// Typed means matchable: no error class may shadow another.
			for _, other := range []error{ErrFrameLength, ErrSync, ErrVersion, ErrCRC, ErrQuality} {
				if other != tc.want && errors.Is(err, other) {
					t.Errorf("error %v also matches %v", err, other)
				}
			}
		})
	}
}
