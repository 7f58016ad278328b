package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cqm/internal/serve"
)

func TestTallyNamesEveryRejectCode(t *testing.T) {
	tl := tally{rejected: map[string]uint64{}}
	for code := serve.RejectOverloaded; code <= serve.RejectShed; code++ {
		tl.record(serve.Response{Rejected: true, Reject: code}, nil, 0)
	}
	if len(tl.rejected) != 7 {
		t.Fatalf("reject codes 1-7 landed under %d names: %v", len(tl.rejected), tl.rejected)
	}
	for code := serve.RejectOverloaded; code <= serve.RejectShed; code++ {
		name := code.String()
		if tl.rejected[name] != 1 || strings.HasPrefix(name, "RejectCode(") {
			t.Errorf("code %d: %q counted %d times", code, name, tl.rejected[name])
		}
	}
}

// reportKeys are the JSON keys each mode's report had before both modes
// shared one harness; they keep their names.
var reportKeys = map[bool][]string{
	false: {"date", "cpu", "target", "pens", "distinct_pens_scored", "fleet_rounds", "conns", "window",
		"duration_s", "sent", "responses", "accepted", "discarded", "epsilon", "rejected",
		"throughput_fps", "latency_ms", "server"},
	true: {"date", "cpu", "target", "seed", "duration_s", "workers", "clients", "requests", "responses",
		"accepted", "discarded", "epsilon", "rejected", "errors", "client", "chaos_decisions",
		"latency_ms", "server"},
}

// nestedKeys are the keys of the nested report objects.
var nestedKeys = map[string][]string{
	"latency_ms": {"p50", "p99", "p999", "max"},
	"client":     {"attempts", "transport_errors", "retries", "dials", "breaker_opens"},
	"server": {"shards", "admitted", "scored", "batches", "max_batch", "rejected_admitted",
		"rejected_deadline", "rejected_shed", "shard_restarts"},
}

func TestRunSelfServed(t *testing.T) {
	for _, chaosMode := range []bool{false, true} {
		name := map[bool]string{false: "serve", true: "chaos"}[chaosMode]
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			out := filepath.Join(t.TempDir(), "BENCH_"+name+".json")
			//lint:ignore determinism-taint the test checks the report's keys and laws, not its measured values
			err := run(options{
				pens: 1000, duration: time.Second, conns: 2, seed: 1,
				queue: 4096, batch: 256, threshold: -1, out: out, chaos: chaosMode,
			})
			if err != nil {
				t.Fatal(err) // run fails when a conservation law breaks
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var rep map[string]any
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			for _, k := range reportKeys[chaosMode] {
				if _, ok := rep[k]; !ok {
					t.Errorf("report lost key %q", k)
				}
			}
			for obj, keys := range nestedKeys {
				m, _ := rep[obj].(map[string]any)
				for _, k := range keys {
					if _, ok := m[k]; !ok {
						t.Errorf("report lost key %s.%s", obj, k)
					}
				}
			}
			for k, want := range map[string]bool{"chaos_decisions": chaosMode, "sent": !chaosMode} {
				if _, ok := rep[k]; ok != want {
					t.Errorf("%s present = %v in %s mode", k, ok, name)
				}
			}
			if rep["responses"].(float64) == 0 {
				t.Error("no request was answered")
			}

			// Clients, proxy, listener and server are all gone.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines after run, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}

func TestPlainRunFailsOnLostFrame(t *testing.T) {
	// The target answers every request but those with seq 1, on which it
	// hangs up: each such request is lost, and a plain run must say so.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					req, err := serve.ReadRequest(conn)
					if err != nil || req.Seq == 1 {
						return
					}
					frame, err := serve.EncodeResponse(serve.Response{Node: req.Node, Seq: req.Seq, Status: serve.StatusAccepted})
					if err != nil {
						return
					}
					if _, err := conn.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	err = run(options{target: ln.Addr().String(), pens: 10, duration: 200 * time.Millisecond, conns: 1, window: 2, seed: 1})
	if err == nil || !strings.Contains(err.Error(), "lost frames") {
		t.Fatalf("run over a target that drops frames: %v, want lost frames", err)
	}
}
