package chaos

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cqm/internal/obs"
)

// MetricDecisions counts chaos decisions taken, by kind.
const MetricDecisions = "cqm_chaos_decisions_total"

// defaultIdleTimeout bounds a silent proxied stream when Config.IdleTimeout
// is zero.
const defaultIdleTimeout = 30 * time.Second

// chunkSize is the pump read buffer: one chaos decision is taken per read
// of up to this many bytes.
const chunkSize = 32 << 10

// dribbleSlices is how many slices a dribbled chunk is cut into.
const dribbleSlices = 8

// Proxy is a fault-injecting TCP proxy: it accepts connections, dials the
// target for each, and pumps bytes both ways, subjecting every chunk to
// one seeded chaos decision per direction. Connection n's directions use
// stream indices 2n (client→server) and 2n+1 (server→client), so the full
// set of schedules is reproducible from Config.Seed alone.
type Proxy struct {
	cfg    Config
	target string
	ln     net.Listener
	conns  sync.WaitGroup
	accept sync.WaitGroup

	next atomic.Int64
	met  [kindCount]*obs.Counter // decisions by kind; Counts reads them

	mu        sync.Mutex
	schedules map[int64][]Decision
}

// New starts a proxy on 127.0.0.1 (ephemeral port) forwarding to target.
// Close stops it. With a nil reg the decision counters are private.
func New(cfg Config, target string, reg *obs.Registry) (*Proxy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = defaultIdleTimeout
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{cfg: cfg, target: target, ln: ln}
	if cfg.Record {
		p.schedules = make(map[int64][]Decision)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.Help(MetricDecisions, "Chaos proxy decisions taken, by kind.")
	for k := Kind(0); k < kindCount; k++ {
		p.met[k] = reg.Counter(MetricDecisions, "kind", k.String())
	}
	p.accept.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address for clients to dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, tears down the listener, and waits for every
// pump goroutine to finish.
func (p *Proxy) Close() error {
	err := p.ln.Close()
	p.accept.Wait()
	p.conns.Wait()
	return err
}

// Counts reads the decision counters /metrics exports, by kind.
func (p *Proxy) Counts() [kindCount]uint64 {
	var out [kindCount]uint64
	for i, c := range p.met {
		out[i] = uint64(c.Value())
	}
	return out
}

// Schedules returns a copy of every finished stream's recorded decision
// schedule, keyed by stream index (empty unless Config.Record; a stream
// appears once its pump has ended).
func (p *Proxy) Schedules() map[int64][]Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int64][]Decision, len(p.schedules))
	for k, v := range p.schedules {
		out[k] = v
	}
	return out
}

// serve is the accept loop.
func (p *Proxy) serve() {
	defer p.accept.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		n := p.next.Add(1) - 1
		p.conns.Add(1)
		go p.relay(client, n)
	}
}

// relay dials the target and pumps both directions of one connection.
func (p *Proxy) relay(client net.Conn, n int64) {
	defer p.conns.Done()
	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		_ = client.Close()
		return
	}
	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() {
		defer pumps.Done()
		p.pump(server, client, 2*n)
	}()
	go func() {
		defer pumps.Done()
		p.pump(client, server, 2*n+1)
	}()
	pumps.Wait()
	_ = client.Close()
	_ = server.Close()
}

// pump copies src to dst chunk by chunk, taking one chaos decision per
// chunk. It returns when either side errors, the idle timeout fires, or a
// fatal decision (Reset, Truncate) tears the stream down.
func (p *Proxy) pump(dst, src net.Conn, stream int64) {
	d := NewDecider(p.cfg, stream)
	if p.cfg.Record {
		defer func() {
			p.mu.Lock()
			p.schedules[stream] = d.Schedule()
			p.mu.Unlock()
		}()
	}
	buf := make([]byte, chunkSize)
	for {
		if p.cfg.IdleTimeout > 0 {
			_ = src.SetReadDeadline(time.Now().Add(p.cfg.IdleTimeout)) //lint:ignore nondeterminism idle deadlines are wall-clock; chaos decisions draw only from the seeded rng
		}
		n, err := src.Read(buf)
		if n > 0 {
			dec := d.Next()
			p.met[dec.Kind].Inc()
			if !p.apply(dst, src, buf[:n], dec) {
				return
			}
		}
		if err != nil {
			// A clean EOF half-closes the forward direction when the
			// transport supports it; anything else kills the stream. The
			// peer's pump keeps running either way until its own side ends.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if tcp, ok := dst.(*net.TCPConn); ok {
				_ = tcp.CloseWrite()
			} else {
				_ = dst.Close()
			}
			return
		}
	}
}

// apply executes one decision on one chunk. It reports false when the
// stream must end (reset, truncation, or a write failure).
func (p *Proxy) apply(dst, src net.Conn, chunk []byte, dec Decision) bool {
	switch dec.Kind {
	case Blackhole:
		return true
	case Reset:
		rst(src)
		rst(dst)
		return false
	case Delay:
		time.Sleep(time.Duration(dec.Arg))
		return p.write(dst, chunk)
	case Dribble:
		step := len(chunk) / dribbleSlices
		if step == 0 {
			step = 1
		}
		for off := 0; off < len(chunk); off += step {
			end := off + step
			if end > len(chunk) {
				end = len(chunk)
			}
			if !p.write(dst, chunk[off:end]) {
				return false
			}
			time.Sleep(time.Duration(dec.Arg))
		}
		return true
	case Truncate:
		keep := int(dec.Arg) * len(chunk) / 1000
		_ = p.write(dst, chunk[:keep])
		_ = dst.Close()
		_ = src.Close()
		return false
	case Corrupt:
		pos := int(uint64(dec.Arg) % uint64(len(chunk)))
		chunk[pos] ^= byte(dec.Arg>>32) | 1
		return p.write(dst, chunk)
	default: // Forward
		return p.write(dst, chunk)
	}
}

// write forwards one slice with the idle write deadline armed.
func (p *Proxy) write(dst net.Conn, b []byte) bool {
	if len(b) == 0 {
		return true
	}
	if p.cfg.IdleTimeout > 0 {
		_ = dst.SetWriteDeadline(time.Now().Add(p.cfg.IdleTimeout)) //lint:ignore nondeterminism idle deadlines are wall-clock; chaos decisions draw only from the seeded rng
	}
	_, err := dst.Write(b)
	return err == nil
}

// rst arranges an abortive close: SetLinger(0) makes Close send an RST
// instead of a FIN, which is what the resilient client's reconnect path
// must survive.
func rst(conn net.Conn) {
	if tcp, ok := conn.(*net.TCPConn); ok {
		_ = tcp.SetLinger(0)
	}
	_ = conn.Close()
}
