package serve

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"cqm/internal/particle"
)

// connWindow is the number of requests one pipelined connection may have
// in flight: the size of its task free list and the capacity of its
// answer channel. It is what lets shard batches form — a connection
// submitting serially would cap every batch at one frame.
const connWindow = 128

// ServeBinary accepts connections speaking the binary frame protocol
// until the listener is closed, then waits for the open connections'
// in-flight requests to finish. Each connection is pipelined: up to
// connWindow requests are decoded and admitted without waiting for
// answers, which go back in completion order (clients match on the
// echoed node/seq). A malformed frame answers with one best-effort
// reject frame and closes the connection — a desynchronized byte stream
// cannot be re-synchronized safely. A peer that stalls mid-frame or
// dribbles bytes slower than Config.IdleTimeout per frame is disconnected
// rather than allowed to pin its serving goroutine forever.
func (s *Server) ServeBinary(ln net.Listener) error {
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			s.serveConn(conn)
		}()
	}
}

// armDeadline pushes conn's read or write deadline idle seconds into the
// future; a non-positive idle leaves the connection unbounded.
func armDeadline(set func(time.Time) error, idle time.Duration) {
	if idle <= 0 {
		return
	}
	_ = set(time.Now().Add(idle)) //lint:ignore nondeterminism connection deadlines are wall-clock by definition
}

// serveConn runs one connection on one goroutine, which reads, admits,
// combines, and writes the answers. The connection owns connWindow tasks; a
// task leaves the free list when a frame is read into it and returns once
// its answer is written. Before any read that could block, when the whole
// window is in flight, and once at the end, the goroutine settles, so it
// never waits on the socket while it owes an answer, and the frames of one
// read fold into one batch.
//
// The frames of one read burst share one admission stamp. The clock is
// read after each read that could reach the socket returns, never before
// it, so time the connection spent idle is never charged to the frame
// that ends the idle spell; and it is read again after every settle, so a
// frame admitted later than a settle is not charged for it either. A stamp
// is thus never earlier than the read that delivered its frame, and later
// than it by at most the decode and admission of the frames before it in
// the burst.
func (s *Server) serveConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	idle := s.cfg.IdleTimeout
	done := make(chan *task, connWindow)
	free := make([]*task, connWindow)
	for i := range free {
		free[i] = &task{done: done}
	}
	elected := make([]*shard, 0, s.cfg.Shards)
	w := bufio.NewWriterSize(conn, 64<<10)
	var werr error
	// settle combines the shards this connection was elected for, receives
	// every answer still owed (some produced by other connections'
	// combiners, which never block on done: it holds the whole window),
	// encodes them, and flushes under a write deadline, so a peer that
	// stops reading is disconnected. Each answer is encoded straight into
	// the buffer's free space, which holds the whole window, so only Flush
	// writes to the socket. After a write error the answers are
	// still received, unwritten, and the connection ends.
	settle := func() error {
		elected = combineAll(elected)
		for len(free) < connWindow {
			t := <-done
			if werr == nil {
				_, werr = w.Write(appendAnswer(w.AvailableBuffer(), t))
			}
			free = append(free, t)
		}
		if werr == nil && w.Buffered() > 0 {
			armDeadline(conn.SetWriteDeadline, idle)
			werr = w.Flush()
		}
		return werr
	}

	r := bufio.NewReaderSize(conn, 64<<10)
	var now time.Time
	for {
		mayBlock := r.Buffered() < maxRequestLen
		restamp := mayBlock || len(free) == 0
		if restamp && settle() != nil {
			break
		}
		// Only a read that can reach the socket needs the deadline: a whole
		// frame must land within the idle window, so a byte-dribbling
		// client cannot hold the connection beyond one window.
		if mayBlock {
			armDeadline(conn.SetReadDeadline, idle)
		}
		t := free[len(free)-1]
		free = free[:len(free)-1]
		err := readFrame(r, t)
		if restamp {
			now = s.cfg.Clock()
		}
		if err == nil {
			if sh := s.admit(t, now); sh != nil {
				elected = append(elected, sh)
			}
			continue
		}
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded) {
			free = append(free, t)
		} else {
			// Best-effort protocol reject before closing; the client
			// cannot be answered per-request once framing is lost.
			t.req, t.reject = Request{}, RejectProtocol
			done <- t
		}
		break
	}
	_ = settle()
}

// readFrame reads and decodes the next request from r into t, its cues
// into t.cues, and consumes the frame. It keeps ReadRequest's error
// semantics: io.EOF at a frame boundary, io.ErrUnexpectedEOF inside a
// frame, the codec's typed errors for a malformed frame.
//
// Reusing t.cues for every frame t carries is safe because no consumer
// keeps the cue slice past the answer: core.Measure.ScoreBatchInto reads
// the cues in place while the task, which owns them until it is answered,
// sits in the batch; the quality engine never sees them, and Config.Adapt's
// Decide gets them before the answer and must copy what it keeps, as
// adapt.Supervisor.Decide does into its window.
//
//cqm:hotpath
func readFrame(r *bufio.Reader, t *task) error {
	head, err := r.Peek(headLen)
	if err != nil {
		return peekError(err, len(head))
	}
	n, deadline, err := requestFromHeader(&t.req, head)
	if err != nil {
		return err
	}
	size := requestSize(n, deadline)
	frame, err := r.Peek(size)
	if err != nil {
		return peekError(err, len(frame))
	}
	err = decodeSection(&t.req, t.cues[:], frame[particle.FrameLen:], deadline)
	_, _ = r.Discard(size)
	return err
}

// peekError maps a short Peek onto io.ReadFull's errors: io.EOF only when
// no byte of the frame arrived, io.ErrUnexpectedEOF when some did.
func peekError(err error, got int) error {
	if got > 0 && errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// appendAnswer appends an answered task's response frame to dst, echoing
// the request identity.
//
//cqm:hotpath
func appendAnswer(dst []byte, t *task) []byte {
	resp := Response{Node: t.req.Node, Seq: t.req.Seq, SentMillis: t.req.SentMillis}
	if t.reject != RejectNone {
		resp.Rejected = true
		resp.Reject = t.reject
	} else {
		resp.Status = t.out.Status
		resp.Q = t.out.Q
	}
	out, err := AppendResponse(dst, resp)
	if err != nil {
		// Unreachable: outcomes are always encodable (q ∈ [0,1]); keep
		// the connection alive with an internal reject if it ever isn't.
		out, _ = AppendResponse(dst, Response{Node: resp.Node, Seq: resp.Seq, SentMillis: resp.SentMillis, Rejected: true, Reject: RejectInternal})
	}
	return out
}
