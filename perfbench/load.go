package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cqm/internal/particle"
	"cqm/internal/serve"
)

// connTimeout bounds every client connection, so a wedged server fails the
// run instead of hanging it.
const connTimeout = 120 * time.Second

// clock stamps client events in nanoseconds since the run's base instant
// (monotonic).
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// conn is the shared state of one client connection of a run.
type conn struct {
	ref   *reference
	nodes []particle.NodeID // node id of every pen
	clk   clock
	id    int // connection index: pens id, id+conns, … are this connection's
	conns int
	// answered counts answers across the run's connections (for the
	// per-window cost samples).
	answered *atomic.Int64
	// measuring gates latency samples (off during warm-up).
	measuring *atomic.Bool
	spans     *spanLog // nil when not tracing
	t         tally
}

// reqID names frame k of this connection uniquely across the run.
func (c *conn) reqID(k int) int64 { return int64(k)*int64(c.conns) + int64(c.id) }

// sampled reports whether frame k carries spans (one in spanEvery).
func (c *conn) sampled(k int) bool { return c.spans != nil && k%spanEvery == 0 }

// pipelined drives one binary connection as a closed loop: frame k goes to
// pen id+conns·(k mod pens) in round k div pens, and a new frame is sent
// only when an answer frees a slot. The first round — every pen's first
// sight — runs with joinWindow frames in flight, the rest with window.
func (c *conn) pipelined(addr string, pens, total, joinWindow, window int) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer func() { _ = nc.Close() }()
	if err := nc.SetDeadline(time.Now().Add(connTimeout)); err != nil {
		return err
	}

	type slot struct {
		meta      atomic.Uint64 // pen<<32 | reference index
		reqID     atomic.Int64
		sendStart atomic.Int64
		sendEnd   atomic.Int64
	}
	slots := make([]slot, window)
	free := make(chan uint16, window) // one token per frame the window allows in flight
	for i := 0; i < joinWindow; i++ {
		free <- uint16(i)
	}
	quit := make(chan struct{})
	sendErr := make(chan error, 1)
	go func() {
		w := bufio.NewWriterSize(nc, 64<<10)
		sendErr <- func() error {
			for k := 0; k < total; k++ {
				if k == pens { // every pen has joined: open the full window
					for i := joinWindow; i < window; i++ {
						free <- uint16(i)
					}
				}
				var s uint16
				select {
				case s = <-free:
				default:
					if err := w.Flush(); err != nil {
						return err
					}
					select {
					case s = <-free:
					case <-quit:
						return nil
					}
				}
				pen := c.id + c.conns*(k%pens)
				it, ei := c.ref.item(pen, k/pens)
				start := c.clk.now()
				frame, err := serve.EncodeRequest(serve.Request{
					Node: c.nodes[pen], Seq: s, SentMillis: uint32(k),
					ClassID: it.ClassID, Cues: it.Cues,
				})
				if err != nil {
					return err
				}
				sl := &slots[s]
				sl.meta.Store(uint64(pen)<<32 | uint64(ei))
				sl.reqID.Store(int64(k))
				sl.sendStart.Store(start)
				if _, err := w.Write(frame); err != nil {
					return err
				}
				sl.sendEnd.Store(c.clk.now())
				c.t.sent++
			}
			return w.Flush()
		}()
	}()

	var readErr error
	br := bufio.NewReaderSize(nc, 64<<10)
	var buf [particle.FrameLen]byte
	for got := 0; got < total; got++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			readErr = fmt.Errorf("reading answer %d of %d: %w", got, total, err)
			break
		}
		recvStart := c.clk.now()
		resp, err := serve.DecodeResponse(buf[:])
		if err != nil || int(resp.Seq) >= window {
			readErr = fmt.Errorf("undecodable answer: %v", err)
			break
		}
		sl := &slots[resp.Seq]
		meta := sl.meta.Load()
		pen := int(meta >> 32)
		match := resp.Node == c.nodes[pen] && matchBinary(&c.ref.exps[uint32(meta)], resp)
		recvEnd := c.clk.now()
		sendStart := sl.sendStart.Load()
		if c.measuring.Load() {
			c.t.answer(match, float64(recvStart-sendStart)/1e3)
		} else if match {
			c.t.ok++
		} else {
			c.t.mismatches++
		}
		if k := int(sl.reqID.Load()); c.sampled(k) {
			c.spans.request(c.reqID(k), sendStart, sl.sendEnd.Load(), recvStart, recvEnd)
		}
		c.answered.Add(1)
		free <- resp.Seq
	}
	close(quit)
	if readErr != nil {
		_ = nc.Close()
	}
	return errors.Join(readErr, <-sendErr)
}

// serial drives one binary connection with exactly one frame in flight —
// one appliance waiting on each decision — until stop is set.
func (c *conn) serial(addr string, stop *atomic.Bool) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer func() { _ = nc.Close() }()
	if err := nc.SetDeadline(time.Now().Add(connTimeout)); err != nil {
		return err
	}
	var buf [particle.FrameLen]byte
	for k := 0; !stop.Load(); k++ {
		pen := c.id
		it, ei := c.ref.item(pen, k)
		sendStart := c.clk.now()
		frame, err := serve.EncodeRequest(serve.Request{
			Node: c.nodes[pen], Seq: uint16(k), SentMillis: uint32(k),
			ClassID: it.ClassID, Cues: it.Cues,
		})
		if err != nil {
			return err
		}
		if _, err := nc.Write(frame); err != nil {
			return err
		}
		c.t.sent++
		sendEnd := c.clk.now()
		if _, err := io.ReadFull(nc, buf[:]); err != nil {
			return fmt.Errorf("reading answer: %w", err)
		}
		recvStart := c.clk.now()
		resp, err := serve.DecodeResponse(buf[:])
		match := err == nil && resp.Node == c.nodes[pen] && resp.Seq == uint16(k) &&
			matchBinary(&c.ref.exps[ei], resp)
		c.record(k, match, sendStart, sendEnd, recvStart)
	}
	return nil
}

// httpClient drives one keep-alive HTTP connection with one POST /score
// in flight until stop is set. It speaks HTTP/1.1 directly on the socket
// so the generator's own cost stays small.
func (c *conn) httpClient(addr string, stop *atomic.Bool) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer func() { _ = nc.Close() }()
	if err := nc.SetDeadline(time.Now().Add(connTimeout)); err != nil {
		return err
	}
	br := bufio.NewReaderSize(nc, 16<<10)
	source := c.nodes[c.id].String()
	var req []byte
	for k := 0; !stop.Load(); k++ {
		pen := c.id
		it, ei := c.ref.item(pen, k)
		sendStart := c.clk.now()
		body, err := json.Marshal(serve.JSONRequest{
			Source: source, Seq: uint16(k), SentMillis: uint32(k),
			Class: int(it.ClassID), Cues: it.Cues,
		})
		if err != nil {
			return err
		}
		req = append(req[:0], "POST /score HTTP/1.1\r\nHost: "...)
		req = append(req, addr...)
		req = append(req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		req = strconv.AppendInt(req, int64(len(body)), 10)
		req = append(req, "\r\n\r\n"...)
		req = append(req, body...)
		if _, err := nc.Write(req); err != nil {
			return err
		}
		c.t.sent++
		sendEnd := c.clk.now()
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return fmt.Errorf("reading answer: %w", err)
		}
		recvStart := c.clk.now()
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return fmt.Errorf("reading answer body: %w", err)
		}
		var jr serve.JSONResponse
		match := resp.StatusCode == http.StatusOK && json.Unmarshal(data, &jr) == nil &&
			jr.Source == source && jr.Seq == uint16(k) && matchJSON(&c.ref.exps[ei], jr)
		c.record(k, match, sendStart, sendEnd, recvStart)
	}
	return nil
}

// record books one answered frame of a one-in-flight connection.
func (c *conn) record(k int, match bool, sendStart, sendEnd, recvStart int64) {
	if c.measuring.Load() {
		c.t.answer(match, float64(recvStart-sendStart)/1e3)
		c.t.doneNS = append(c.t.doneNS, recvStart)
	} else if match {
		c.t.ok++
	} else {
		c.t.mismatches++
	}
	if c.sampled(k) {
		c.spans.request(c.reqID(k), sendStart, sendEnd, recvStart, c.clk.now())
	}
	c.answered.Add(1)
}

// probe sends one request on the given front and reports whether the
// answer equals the reference — the readiness test of a set-up launch.
func probe(ref *reference, ch *child, binary bool) error {
	it := ref.pool.Item(0, ref.probe)
	exp := &ref.exps[ref.probe]
	if binary {
		nc, err := net.Dial("tcp", ch.binAddr)
		if err != nil {
			return err
		}
		defer func() { _ = nc.Close() }()
		if err := nc.SetDeadline(time.Now().Add(connTimeout)); err != nil {
			return err
		}
		frame, err := serve.EncodeRequest(serve.Request{Node: probeNode, ClassID: it.ClassID, Cues: it.Cues})
		if err != nil {
			return err
		}
		if _, err := nc.Write(frame); err != nil {
			return err
		}
		var buf [particle.FrameLen]byte
		if _, err := io.ReadFull(nc, buf[:]); err != nil {
			return err
		}
		resp, err := serve.DecodeResponse(buf[:])
		if err != nil || !matchBinary(exp, resp) {
			return fmt.Errorf("probe answer %+v differs from the reference (%v)", resp, err)
		}
		return nil
	}
	body, err := json.Marshal(serve.JSONRequest{Source: probeNode.String(), Class: int(it.ClassID), Cues: it.Cues})
	if err != nil {
		return err
	}
	client := http.Client{Timeout: connTimeout}
	resp, err := client.Post("http://"+ch.httpAddr+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	var jr serve.JSONResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !matchJSON(exp, jr) {
		return fmt.Errorf("probe answer %d %+v differs from the reference", resp.StatusCode, jr)
	}
	return nil
}
