package serve

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"cqm/internal/particle"
)

// goldenRequests and goldenResponses pin the wire bytes: the hex strings
// were produced by the codec before it gained its append forms and the
// table-driven CRC, so they also prove that neither changed a byte.
var goldenRequests = []struct {
	req Request
	hex string
}{
	{
		Request{Node: particle.NodeIDFromString("pen-0042"), Seq: 513, SentMillis: 70000, ClassID: 2, Cues: []float64{0.25, -1.5, 3}},
		"aa011070656e2d3030343202010001117002ffff5a7c033fd0000000000000bff800000000000040080000000000003c2f",
	},
	{
		Request{Node: particle.NodeIDFromString("pen-0042"), Seq: 514, SentMillis: 70001, ClassID: 1, Cues: []float64{0.125}, DeadlineMillis: 250},
		"aa011570656e2d3030343202020001117101ffffbd7b01000000fa3fc00000000000007f95",
	},
}

var goldenResponses = []struct {
	resp Response
	hex  string
}{
	{Response{Node: particle.NodeIDFromString("pen-0042"), Seq: 7, SentMillis: 9, Status: StatusAccepted, Q: 0.8125}, "aa011170656e2d303034320007000000090067ff496a"},
	{Response{Node: particle.NodeIDFromString("pen-0042"), Seq: 8, SentMillis: 10, Status: StatusDiscarded, Q: 0.25}, "aa011270656e2d3030343200080000000a00200081ad"},
	{Response{Node: particle.NodeIDFromString("pen-0042"), Seq: 9, SentMillis: 11, Status: StatusEpsilon}, "aa011370656e2d3030343200090000000b00ffff5b12"},
	{Response{Node: particle.NodeIDFromString("pen-0042"), Seq: 10, SentMillis: 12, Rejected: true, Reject: RejectShed}, "aa011470656e2d30303432000a0000000c07ffffb70f"},
}

// checkAppended checks that an append form extended prefix by exactly
// want and left the prefix alone.
func checkAppended(t *testing.T, got, prefix, want []byte) {
	t.Helper()
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("append form = %x, want %x after prefix %x", got, want, prefix)
	}
}

func TestCodecGoldenBytes(t *testing.T) {
	prefix := []byte{0xDE, 0xAD}
	for _, g := range goldenRequests {
		want, _ := hex.DecodeString(g.hex)
		enc, err := EncodeRequest(g.req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("EncodeRequest(%+v) = %x, want %x", g.req, enc, want)
		}
		app, err := AppendRequest(append([]byte(nil), prefix...), g.req)
		if err != nil {
			t.Fatal(err)
		}
		checkAppended(t, app, prefix, want)
		back, err := DecodeRequest(want)
		if err != nil || !reflect.DeepEqual(back, g.req) {
			t.Errorf("DecodeRequest(golden) = %+v, %v; want %+v", back, err, g.req)
		}
	}
	for _, g := range goldenResponses {
		want, _ := hex.DecodeString(g.hex)
		enc, err := EncodeResponse(g.resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("EncodeResponse(%+v) = %x, want %x", g.resp, enc, want)
		}
		app, err := AppendResponse(append([]byte(nil), prefix...), g.resp)
		if err != nil {
			t.Fatal(err)
		}
		checkAppended(t, app, prefix, want)
		// The binary front's answer encoder writes the same frame.
		task := &task{req: Request{Node: g.resp.Node, Seq: g.resp.Seq, SentMillis: g.resp.SentMillis}}
		if g.resp.Rejected {
			task.reject = g.resp.Reject
		} else {
			task.out = Outcome{Status: g.resp.Status, Q: g.resp.Q}
		}
		checkAppended(t, appendAnswer(append([]byte(nil), prefix...), task), prefix, want)
	}
}

func TestAppendFormsLeaveDstOnError(t *testing.T) {
	dst := []byte{1, 2, 3}
	bad := sampleRequest()
	bad.Cues = nil
	if out, err := AppendRequest(dst, bad); !errors.Is(err, ErrCueCount) || !bytes.Equal(out, dst) {
		t.Errorf("AppendRequest(no cues) = %x, %v; want dst unchanged and ErrCueCount", out, err)
	}
	if out, err := AppendResponse(dst, Response{Status: StatusAccepted, Q: 2}); !errors.Is(err, particle.ErrQuality) || !bytes.Equal(out, dst) {
		t.Errorf("AppendResponse(q=2) = %x, %v; want dst unchanged and ErrQuality", out, err)
	}
}

// repeatReader replays data forever, so a bufio.Reader over it yields an
// endless stream of frames without allocating.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.data[r.off:])
		n += c
		r.off = (r.off + c) % len(r.data)
	}
	return n, nil
}

func TestCodecAllocs(t *testing.T) {
	var stream []byte
	for _, g := range goldenRequests {
		frame, _ := hex.DecodeString(g.hex)
		stream = append(stream, frame...)
	}
	br := bufio.NewReaderSize(&repeatReader{data: stream}, 64<<10)
	tk := &task{}
	w := bufio.NewWriterSize(io.Discard, 64<<10)
	req := goldenRequests[1].req
	buf := make([]byte, 0, 4<<10)
	cases := []struct {
		name string
		f    func()
	}{
		{"AppendRequest", func() { buf, _ = AppendRequest(buf[:0], req) }},
		{"AppendResponse", func() { buf, _ = AppendResponse(buf[:0], goldenResponses[0].resp) }},
		{"readFrame", func() {
			if err := readFrame(br, tk); err != nil {
				panic(err)
			}
		}},
		{"appendAnswer", func() {
			_, _ = w.Write(appendAnswer(w.AvailableBuffer(), tk))
			if w.Available() < particle.FrameLen {
				_ = w.Flush()
			}
		}},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(1000, tc.f); n != 0 {
			t.Errorf("%s: %v allocs per frame, want 0", tc.name, n)
		}
	}
}

// TestReadFrameMatchesReadRequest runs the server's per-frame read and
// ReadRequest over the same streams: a run of good frames, truncations at
// every offset, and malformed frames. Both must decode the same requests
// and fail with the same errors.
func TestReadFrameMatchesReadRequest(t *testing.T) {
	var good []byte
	for _, g := range goldenRequests {
		frame, _ := hex.DecodeString(g.hex)
		good = append(good, frame...)
	}
	streams := [][]byte{good}
	for cut := 0; cut < len(good); cut++ {
		streams = append(streams, good[:cut])
	}
	for _, mutate := range []func(d []byte){
		func(d []byte) { d[0] = 0 },                                  // sync
		func(d []byte) { d[5] ^= 0x10 },                              // header CRC
		func(d []byte) { d[particle.FrameLen] = MaxCues + 1 },        // cue count
		func(d []byte) { d[particle.FrameLen+3] ^= 0x40 },            // cue CRC
		func(d []byte) { d[2] = byte(TypeAccepted); reHeaderCRC(d) }, // type
	} {
		d := append([]byte(nil), good...)
		mutate(d)
		streams = append(streams, d)
	}
	for i, s := range streams {
		want := bytes.NewReader(s)
		br := bufio.NewReader(bytes.NewReader(s))
		for frame := 0; ; frame++ {
			wantReq, wantErr := ReadRequest(want)
			tk := &task{}
			gotErr := readFrame(br, tk)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("stream %d frame %d: readFrame err %v, ReadRequest err %v", i, frame, gotErr, wantErr)
			}
			if wantErr != nil {
				if errors.Is(wantErr, io.EOF) != errors.Is(gotErr, io.EOF) || errors.Is(wantErr, io.ErrUnexpectedEOF) != errors.Is(gotErr, io.ErrUnexpectedEOF) {
					t.Fatalf("stream %d frame %d: io error classes differ: %v vs %v", i, frame, gotErr, wantErr)
				}
				break
			}
			if !reflect.DeepEqual(tk.req, wantReq) {
				t.Fatalf("stream %d frame %d: readFrame %+v, ReadRequest %+v", i, frame, tk.req, wantReq)
			}
		}
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	frame, _ := hex.DecodeString(goldenRequests[0].hex)
	b.Run("DecodeRequest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRequest(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("readFrame", func(b *testing.B) {
		br := bufio.NewReaderSize(&repeatReader{data: frame}, 64<<10)
		tk := &task{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := readFrame(br, tk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeResponse(b *testing.B) {
	resp := goldenResponses[0].resp
	b.Run("EncodeResponse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeResponse(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AppendResponse", func(b *testing.B) {
		buf := make([]byte, 0, particle.FrameLen)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = AppendResponse(buf[:0], resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
