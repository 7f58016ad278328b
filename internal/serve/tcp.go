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
// rather than allowed to pin its serving goroutines forever.
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

// serveConn runs one connection on two goroutines: this one reads, admits
// and scores frames, a writer encodes the answers. The connection owns
// connWindow tasks; a task leaves the free list when a frame is read into
// it and returns once its answer is written, so the reader stops reading
// while the whole window is in flight. A shard the reader is elected to
// combine is combined only where the reader could otherwise block — before
// a socket read, before waiting on the free list, and before waiting for
// the last answers — so the frames of one read fold into one batch.
func (s *Server) serveConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	idle := s.cfg.IdleTimeout

	done := make(chan *task, connWindow)
	free := make(chan *task, connWindow)
	for i := 0; i < connWindow; i++ {
		free <- &task{done: done}
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		writeAnswers(conn, done, free, idle)
	}()

	r := bufio.NewReaderSize(conn, 64<<10)
	elected := make([]*shard, 0, s.cfg.Shards)
	for {
		if len(free) == 0 {
			elected = combineAll(elected)
		}
		t := <-free
		if r.Buffered() < maxRequestLen {
			elected = combineAll(elected)
		}
		// The deadline is re-armed per frame: a whole frame must land
		// within the idle window, so a byte-dribbling client cannot hold
		// the reader beyond one window.
		armDeadline(conn.SetReadDeadline, idle)
		req, err := ReadRequest(r)
		if err == nil {
			t.req = req
			if sh := s.admit(t); sh != nil {
				elected = append(elected, sh)
			}
			continue
		}
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded) {
			free <- t
		} else {
			// Best-effort protocol reject before closing; the client
			// cannot be answered per-request once framing is lost.
			t.req, t.reject = Request{}, RejectProtocol
			done <- t
		}
		break
	}
	combineAll(elected)
	// Every task back on the free list means every answer was written.
	for i := 0; i < connWindow; i++ {
		<-free
	}
	close(done)
	<-wrote
}

// writeAnswers encodes answered tasks into the connection and hands each
// task back to the free list. Answers coalesce in the buffer, which holds
// the whole window, so only Flush writes to the socket: once no further
// answer is waiting, or the buffer has no room for another frame. Each
// flush re-arms the write deadline, so a peer that stops reading cannot
// park the writer forever; after a write error the writer keeps returning
// tasks, unwritten, so the reader never waits on a dead connection.
func writeAnswers(conn net.Conn, done <-chan *task, free chan<- *task, idle time.Duration) {
	w := bufio.NewWriterSize(conn, 64<<10)
	var err error
	for t := range done {
		if err == nil {
			_, err = w.Write(encodeAnswer(t))
		}
		free <- t
		if err == nil && (len(done) == 0 || w.Available() < particle.FrameLen) {
			armDeadline(conn.SetWriteDeadline, idle)
			err = w.Flush()
		}
	}
}

// encodeAnswer renders an answered task as its response frame, echoing
// the request identity.
func encodeAnswer(t *task) []byte {
	resp := Response{Node: t.req.Node, Seq: t.req.Seq, SentMillis: t.req.SentMillis}
	if t.reject != RejectNone {
		resp.Rejected = true
		resp.Reject = t.reject
	} else {
		resp.Status = t.out.Status
		resp.Q = t.out.Q
	}
	frame, err := EncodeResponse(resp)
	if err != nil {
		// Unreachable: outcomes are always encodable (q ∈ [0,1]); keep
		// the connection alive with an internal reject if it ever isn't.
		frame, _ = EncodeResponse(Response{Node: resp.Node, Seq: resp.Seq, SentMillis: resp.SentMillis, Rejected: true, Reject: RejectInternal})
	}
	return frame
}
