package serve

import (
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"cqm/internal/core"
	"cqm/internal/particle"
)

// binaryFront starts a binary listener for srv and returns its address.
func binaryFront(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(ln) }()
	t.Cleanup(func() {
		_ = ln.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeBinary: %v", err)
		}
	})
	return ln.Addr().String()
}

// dialFront dials the binary front with a generous read deadline so a
// misbehaving server fails the test instead of hanging it.
func dialFront(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// readFrames collects response frames until the server hangs up.
func readFrames(t *testing.T, conn net.Conn) []Response {
	t.Helper()
	var out []Response
	var frame [particle.FrameLen]byte
	for {
		if _, err := io.ReadFull(conn, frame[:]); err != nil {
			return out
		}
		resp, err := DecodeResponse(frame[:])
		if err != nil {
			t.Fatalf("undecodable response frame: %v", err)
		}
		out = append(out, resp)
	}
}

// halfClose signals write-side EOF while keeping the read side open.
func halfClose(t *testing.T, conn net.Conn) {
	t.Helper()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
		return
	}
	t.Fatal("connection does not support half-close")
}

func TestTCPShortHeaderRejectedAndClosed(t *testing.T) {
	srv := biasServer(t, 0.75, Config{})
	conn := dialFront(t, binaryFront(t, srv))

	// Ten bytes of a 23-byte header section, then EOF mid-frame.
	if _, err := conn.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	halfClose(t, conn)
	frames := readFrames(t, conn)
	if len(frames) != 1 || !frames[0].Rejected || frames[0].Reject != RejectProtocol {
		t.Fatalf("frames = %+v, want one protocol reject", frames)
	}
}

func TestTCPDropBetweenHeaderAndCues(t *testing.T) {
	srv := biasServer(t, 0.75, Config{})
	conn := dialFront(t, binaryFront(t, srv))

	frame, err := EncodeRequest(penRequest(1, 1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver exactly the header and cue count, then hang up: the server
	// is mid-frame and must answer a best-effort protocol reject, not
	// stall or silently drop.
	if _, err := conn.Write(frame[:particle.FrameLen+1]); err != nil {
		t.Fatal(err)
	}
	halfClose(t, conn)
	frames := readFrames(t, conn)
	if len(frames) != 1 || !frames[0].Rejected || frames[0].Reject != RejectProtocol {
		t.Fatalf("frames = %+v, want one protocol reject", frames)
	}
}

func TestTCPCueCRCMismatchMidStream(t *testing.T) {
	srv := biasServer(t, 0.75, Config{})
	conn := dialFront(t, binaryFront(t, srv))

	good, err := EncodeRequest(penRequest(1, 7, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := EncodeRequest(penRequest(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	bad[particle.FrameLen+3] ^= 0xFF // flip a cue byte; the CRC no longer matches

	if _, err := conn.Write(append(append([]byte{}, good...), bad...)); err != nil {
		t.Fatal(err)
	}
	halfClose(t, conn)
	frames := readFrames(t, conn)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want scored response + protocol reject: %+v", len(frames), frames)
	}
	// Completion order is not guaranteed between the scored response and
	// the reader's reject, so match by content.
	var scored, rejected int
	for _, f := range frames {
		switch {
		case !f.Rejected && f.Seq == 7:
			scored++
		case f.Rejected && f.Reject == RejectProtocol:
			rejected++
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	if scored != 1 || rejected != 1 {
		t.Fatalf("scored %d, rejected %d: %+v", scored, rejected, frames)
	}
}

func TestTCPDribblerDisconnected(t *testing.T) {
	srv := biasServer(t, 0.75, Config{IdleTimeout: 100 * time.Millisecond})
	conn := dialFront(t, binaryFront(t, srv))

	frame, err := EncodeRequest(penRequest(1, 1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	// Dribble one byte every 20ms: the whole frame would take ~660ms,
	// far past the 100ms per-frame idle window — the server must hang up
	// rather than wait the dribble out.
	start := time.Now()
	disconnected := false
	for _, b := range frame {
		if _, err := conn.Write([]byte{b}); err != nil {
			disconnected = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	frames := readFrames(t, conn)
	elapsed := time.Since(start)
	if !disconnected && len(frames) > 0 {
		t.Fatalf("dribbled frame was answered: %+v", frames)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("dribbler held the connection %v", elapsed)
	}
	stats := srv.Stats()
	if stats.Admitted != 0 {
		t.Fatalf("dribbled partial frame was admitted: %+v", stats)
	}
}

func TestTCPIdleTimeoutDisabled(t *testing.T) {
	// A negative IdleTimeout must leave slow frames alone: the same
	// dribble cadence that gets disconnected above is answered here.
	srv := biasServer(t, 0.75, Config{IdleTimeout: -1})
	conn := dialFront(t, binaryFront(t, srv))

	frame, err := EncodeRequest(penRequest(1, 3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range frame {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatalf("write: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	halfClose(t, conn)
	frames := readFrames(t, conn)
	if len(frames) != 1 || frames[0].Rejected || frames[0].Seq != 3 {
		t.Fatalf("frames = %+v, want one scored response", frames)
	}
}

func TestArmDeadlineDisabled(t *testing.T) {
	for _, idle := range []time.Duration{0, -time.Second} {
		armDeadline(func(time.Time) error {
			t.Fatalf("deadline armed with idle %v", idle)
			return nil
		}, idle)
	}
	var got time.Time
	armDeadline(func(d time.Time) error { got = d; return nil }, time.Minute)
	if time.Until(got) < 50*time.Second {
		t.Fatalf("deadline %v not ~1 minute out", got)
	}
}

func TestNewHTTPServerHardenedTimeouts(t *testing.T) {
	// Regression pin: the HTTP front must never ship with a bare
	// &http.Server{} again — every slow-client timeout is set.
	s := NewHTTPServer(nil)
	if s.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slow-loris headers can pin connections")
	}
	if s.ReadTimeout <= 0 || s.WriteTimeout <= 0 {
		t.Error("Read/Write timeouts unset: a stalled exchange can pin a goroutine")
	}
	if s.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: dead keep-alive connections are never reclaimed")
	}
}

func TestTCPConnectionRunsOneGoroutine(t *testing.T) {
	srv := biasServer(t, 0.75, Config{})
	addr := binaryFront(t, srv)
	frame, err := EncodeRequest(penRequest(1, 1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	// roundTrip proves the connection's goroutine is running: it has
	// read, scored and written a frame, and starts nothing else to do so.
	roundTrip := func(conn net.Conn) {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		var resp [particle.FrameLen]byte
		if _, err := io.ReadFull(conn, resp[:]); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip(dialFront(t, addr)) // warm up runtime helpers before counting

	const conns, slack = 8, 4
	before := runtime.NumGoroutine()
	for i := 0; i < conns; i++ {
		roundTrip(dialFront(t, addr))
	}
	if grew := runtime.NumGoroutine() - before; grew > conns+slack {
		t.Fatalf("%d binary connections added %d goroutines, want at most %d", conns, grew, conns+slack)
	}
}

func TestTCPForeignCombinerAnswerNotHeldByRead(t *testing.T) {
	// A Submit parked in its observer combines the only shard, so the
	// connection's one frame is answered by that combiner, not by the
	// reader. The reader must wait for that answer and write it rather
	// than block in a socket read that ends only with the 2-minute idle
	// timeout.
	held, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	srv := biasServer(t, 0.75, Config{BatchObserver: func(*core.Measure, []Outcome) {
		hold.Do(func() {
			close(held)
			<-release
		})
	}})
	conn := dialFront(t, binaryFront(t, srv))
	letGo := func() { unhold.Do(func() { close(release) }) }
	t.Cleanup(letGo) // runs before the connection and server cleanups

	parked := make(chan error, 1)
	go func() {
		_, err := srv.Submit(penRequest(2, 0, 0.5))
		parked <- err
	}()
	<-held
	frame, err := EncodeRequest(penRequest(1, 9, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the frame to be admitted", func() bool { return srv.Stats().Admitted == 2 })
	letGo()

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp [particle.FrameLen]byte
	if _, err := io.ReadFull(conn, resp[:]); err != nil {
		t.Fatalf("answer combined by another goroutine not written: %v", err)
	}
	if got, err := DecodeResponse(resp[:]); err != nil || got.Rejected || got.Seq != 9 {
		t.Fatalf("answer %+v, %v", got, err)
	}
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
}

func TestTCPWindowBoundsInFlight(t *testing.T) {
	// A Submit parks the only shard in its observer, so the connection's
	// reader is never elected to combine it; meanwhile the connection may
	// admit no more than its window of frames.
	held, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	srv := biasServer(t, 0.75, Config{BatchObserver: func(*core.Measure, []Outcome) {
		hold.Do(func() {
			close(held)
			<-release
		})
	}})
	conn := dialFront(t, binaryFront(t, srv))
	letGo := func() { unhold.Do(func() { close(release) }) }
	t.Cleanup(letGo) // runs before the connection and server cleanups

	const n = 1000
	var stream []byte
	for i := 0; i < n; i++ {
		frame, err := EncodeRequest(penRequest(1, uint16(i), 0.5))
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := srv.Submit(penRequest(2, 0, 0.5))
		parked <- err
	}()
	<-held
	wrote := make(chan error, 1)
	go func() {
		_, err := conn.Write(stream)
		wrote <- err
	}()

	outstanding := func() int64 {
		st := srv.Stats()
		return int64(st.Admitted) - int64(st.Scored()+st.AdmittedRejects())
	}
	waitUntil(t, "the window to fill", func() bool { return outstanding() >= connWindow })
	for i := 0; i < 200; i++ {
		if got := outstanding(); got > connWindow {
			t.Fatalf("%d frames admitted but unanswered, window is %d", got, connWindow)
		}
		time.Sleep(100 * time.Microsecond)
	}
	letGo()

	seen := make(map[uint16]bool, n)
	var frame [particle.FrameLen]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(conn, frame[:]); err != nil {
			t.Fatalf("after %d answers: %v", i, err)
		}
		resp, err := DecodeResponse(frame[:])
		if err != nil || resp.Rejected || seen[resp.Seq] {
			t.Fatalf("answer %d: %+v, %v", i, resp, err)
		}
		seen[resp.Seq] = true
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Admitted != n+1 || st.Admitted != st.Scored()+st.AdmittedRejects() {
		t.Fatalf("admitted %d, answered %d, want %d", st.Admitted, st.Scored()+st.AdmittedRejects(), n+1)
	}
}
