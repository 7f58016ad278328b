package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cqm/internal/obs"
)

// faultyConfig enables every fault kind at once.
func faultyConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		ResetProb:     0.05,
		BlackholeRate: 0.1,
		TruncateProb:  0.05,
		CorruptProb:   0.05,
		DribbleProb:   0.1,
		DelayProb:     0.3,
		DelayBase:     time.Millisecond,
		DelayMax:      5 * time.Millisecond,
		DribbleDelay:  time.Millisecond,
		Record:        true,
	}
}

func TestDeciderDeterminism(t *testing.T) {
	cfg := faultyConfig(42)
	a, b := NewDecider(cfg, 3), NewDecider(cfg, 3)
	for i := 0; i < 10_000; i++ {
		a.Next()
		b.Next()
	}
	if !reflect.DeepEqual(a.Schedule(), b.Schedule()) {
		t.Fatal("same seed and stream produced different schedules")
	}
	// A different stream index must decorrelate.
	c := NewDecider(cfg, 4)
	for i := 0; i < 10_000; i++ {
		c.Next()
	}
	if reflect.DeepEqual(a.Schedule(), c.Schedule()) {
		t.Fatal("different streams produced identical schedules")
	}
}

func TestDeciderCoversEveryKind(t *testing.T) {
	cfg := faultyConfig(7)
	d := NewDecider(cfg, 0)
	var seen [kindCount]int
	for i := 0; i < 20_000; i++ {
		seen[d.Next().Kind]++
	}
	for k := Kind(0); k < kindCount; k++ {
		if seen[k] == 0 {
			t.Errorf("kind %s never drawn in 20k decisions", k)
		}
	}
}

func TestDecisionArgsContentIndependent(t *testing.T) {
	cfg := faultyConfig(11)
	d := NewDecider(cfg, 0)
	for i := 0; i < 5_000; i++ {
		dec := d.Next()
		switch dec.Kind {
		case Truncate:
			if dec.Arg < 0 || dec.Arg >= 1000 {
				t.Fatalf("truncate permille %d outside [0,1000)", dec.Arg)
			}
		case Delay:
			got := time.Duration(dec.Arg)
			if got < cfg.DelayBase || got > cfg.DelayMax {
				t.Fatalf("delay %v outside [%v,%v]", got, cfg.DelayBase, cfg.DelayMax)
			}
		case Dribble:
			if time.Duration(dec.Arg) != cfg.DribbleDelay {
				t.Fatalf("dribble arg %d, want %d", dec.Arg, cfg.DribbleDelay)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{ResetProb: -0.1},
		{ResetProb: 1.5},
		{TruncateProb: 0.5, CorruptProb: 0.6},
		{BlackholeRate: -1},
		{DelayBase: -time.Second},
		{DelayBase: time.Second, DelayMax: time.Millisecond},
		{DribbleDelay: -time.Second},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d validated", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Forward: "forward", Delay: "delay", Dribble: "dribble",
		Truncate: "truncate", Corrupt: "corrupt", Blackhole: "blackhole",
		Reset: "reset", Kind(99): "Kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), k.String(), s)
		}
	}
}

// echoServer accepts connections and echoes bytes until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { _ = conn.Close() }()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	return ln
}

// startProxy wires a chaos proxy in front of target and cleans it up.
func startProxy(t *testing.T, cfg Config, target string, reg *obs.Registry) *Proxy {
	t.Helper()
	p, err := New(cfg, target, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// roundTrip sends msg through conn and reads len(msg) bytes back.
func roundTrip(t *testing.T, conn net.Conn, msg []byte) ([]byte, error) {
	t.Helper()
	if _, err := conn.Write(msg); err != nil {
		return nil, err
	}
	got := make([]byte, len(msg))
	_, err := io.ReadFull(conn, got)
	return got, err
}

func TestProxyForwardsClean(t *testing.T) {
	ln := echoServer(t)
	reg := obs.NewRegistry()
	p := startProxy(t, Config{Seed: 1, Record: true}, ln.Addr().String(), reg)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	msg := []byte("through the looking glass")
	got, err := roundTrip(t, conn, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo corrupted: %q", got)
	}
	counts := p.Counts()
	if counts[Forward] < 2 {
		t.Fatalf("expected ≥2 forward decisions, got %v", counts)
	}
	for k := Kind(1); k < kindCount; k++ {
		if counts[k] != 0 {
			t.Fatalf("zero-fault config took a %s decision", k)
		}
	}
	// Counts and /metrics read one counter per kind.
	snap := reg.Snapshot()
	for k := Kind(0); k < kindCount; k++ {
		if v, ok := snap.Counter(MetricDecisions, "kind", k.String()); !ok || uint64(v) != counts[k] {
			t.Errorf("%s{kind=%s} = %d (present %v), Counts has %d", MetricDecisions, k, v, ok, counts[k])
		}
	}
}

func TestProxyScheduleMatchesDecider(t *testing.T) {
	// The proxy's recorded schedule must be exactly the prefix of the pure
	// decider stream for that (seed, stream) — the proxy adds no hidden
	// draws.
	ln := echoServer(t)
	cfg := Config{Seed: 99, DelayProb: 1, DelayBase: time.Microsecond, DelayMax: 2 * time.Microsecond, Record: true}
	p := startProxy(t, cfg, ln.Addr().String(), nil)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("schedule check")
	if _, err := roundTrip(t, conn, msg); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	_ = p.Close()

	for stream, got := range p.Schedules() {
		ref := NewDecider(cfg, stream)
		for i, dec := range got {
			if want := ref.Next(); dec != want {
				t.Fatalf("stream %d decision %d = %+v, want %+v", stream, i, dec, want)
			}
		}
	}
	if len(p.Schedules()) != 2 {
		t.Fatalf("want 2 recorded streams, got %d", len(p.Schedules()))
	}
}

func TestProxyReset(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, Config{Seed: 5, ResetProb: 1}, ln.Addr().String(), nil)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded through a reset-everything proxy")
	}
	if c := p.Counts(); c[Reset] == 0 {
		t.Fatalf("no reset decision recorded: %v", c)
	}
}

func TestProxyBlackhole(t *testing.T) {
	ln := echoServer(t)
	// Rate 0.8 drives the Gilbert–Elliott chain into the bad state on the
	// first transition, so every chunk is swallowed.
	p := startProxy(t, Config{Seed: 2, BlackholeRate: 0.8}, ln.Addr().String(), nil)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read through a blackhole returned %v, want deadline", err)
	}
	if c := p.Counts(); c[Blackhole] == 0 {
		t.Fatalf("no blackhole decision recorded: %v", c)
	}
}

func TestProxyTruncateClosesStream(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, Config{Seed: 3, TruncateProb: 1}, ln.Addr().String(), nil)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	msg := bytes.Repeat([]byte("x"), 1000)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if err != nil {
		t.Fatalf("truncated stream should end in EOF, got %v", err)
	}
	if n >= int64(len(msg)) {
		t.Fatalf("truncation delivered all %d bytes", n)
	}
	if c := p.Counts(); c[Truncate] == 0 {
		t.Fatalf("no truncate decision recorded: %v", c)
	}
}

func TestProxyCorrupt(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, Config{Seed: 4, CorruptProb: 1}, ln.Addr().String(), nil)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	msg := bytes.Repeat([]byte("a"), 256)
	got, err := roundTrip(t, conn, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("corrupt-everything proxy delivered clean bytes")
	}
	if c := p.Counts(); c[Corrupt] == 0 {
		t.Fatalf("no corrupt decision recorded: %v", c)
	}
}

func TestProxyDribbleDelivers(t *testing.T) {
	ln := echoServer(t)
	cfg := Config{Seed: 6, DribbleProb: 1, DribbleDelay: time.Millisecond}
	p := startProxy(t, cfg, ln.Addr().String(), nil)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	msg := bytes.Repeat([]byte("slow"), 64)
	got, err := roundTrip(t, conn, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("dribbled bytes corrupted")
	}
	if c := p.Counts(); c[Dribble] == 0 {
		t.Fatalf("no dribble decision recorded: %v", c)
	}
}

func TestProxyDialFailureClosesClient(t *testing.T) {
	// Port 1 on loopback refuses connections; the client must see its
	// connection closed, not hang.
	p := startProxy(t, Config{Seed: 8}, "127.0.0.1:1", nil)
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after failed upstream dial, got %v", err)
	}
}

func TestProxyIdleTimeoutUnsticksPumps(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, Config{Seed: 9, IdleTimeout: 50 * time.Millisecond}, ln.Addr().String(), nil)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	// Write nothing: both pumps must give up on their own, and Close must
	// not hang waiting for them.
	done := make(chan struct{})
	go func() {
		_ = p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
}

func TestProxyRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{ResetProb: 2}, "127.0.0.1:1", nil); err == nil {
		t.Fatal("bad config accepted")
	} else if !strings.Contains(err.Error(), "probability") {
		t.Fatalf("unexpected error %v", err)
	}
}
