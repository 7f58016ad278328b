package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/particle"
)

func TestServerStartsNoGoroutines(t *testing.T) {
	handle := ckpt.NewHandle(biasMeasure(t, 0.75))
	// A goroutine left over from an earlier test may exit mid-count, so
	// the count is taken a few times; one unchanged count suffices, and a
	// goroutine per shard would grow every one of them by 8.
	var grew int
	for attempt := 0; attempt < 3; attempt++ {
		before := runtime.NumGoroutine()
		srv, err := New(Config{Shards: 8, Handle: handle})
		if err != nil {
			t.Fatal(err)
		}
		grew = runtime.NumGoroutine() - before
		srv.Drain()
		if grew <= 0 {
			return
		}
	}
	t.Fatalf("New with 8 shards started %d goroutines, want 0", grew)
}

func TestCombinerStress(t *testing.T) {
	const workers, perWorker = 32, 300
	for _, batch := range []int{1, 3} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			srv := biasServer(t, 0.75, Config{Shards: 1, QueueDepth: 4, BatchSize: batch, Threshold: 0.5})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						out, err := srv.Submit(penRequest(w, uint16(i), 0.5))
						switch {
						case errors.Is(err, ErrOverloaded):
						case err != nil:
							t.Errorf("worker %d request %d: %v", w, i, err)
							return
						case out.Status != StatusAccepted:
							t.Errorf("worker %d request %d: %+v", w, i, out)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			srv.Drain()
			st := srv.Stats()
			if st.Admitted != st.Scored() {
				t.Errorf("admitted %d, scored %d: %+v", st.Admitted, st.Scored(), st)
			}
			if got := st.Admitted + st.RejectedOverload; got != workers*perWorker {
				t.Errorf("admitted %d + overloaded %d = %d, want %d", st.Admitted, st.RejectedOverload, got, workers*perWorker)
			}
			if st.MaxBatch > uint64(batch) {
				t.Errorf("max batch %d exceeds BatchSize %d", st.MaxBatch, batch)
			}
		})
	}
}

func TestTCPReaderCombinesBeforeBlocking(t *testing.T) {
	// One connection is the only client, so its reader is elected to
	// combine the shard. Each burst is answered while the reader waits on
	// the socket for the next one: had it kept the shard uncombined until
	// its next read returned, the first burst would never be answered.
	srv := biasServer(t, 0.75, Config{Threshold: 0.5})
	conn := dialFront(t, binaryFront(t, srv))
	const burst = 16
	for b := 0; b < 2; b++ {
		var stream []byte
		for i := 0; i < burst; i++ {
			frame, err := EncodeRequest(penRequest(i, uint16(b*burst+i), 0.5))
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, frame...)
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		var frame [particle.FrameLen]byte
		for i := 0; i < burst; i++ {
			if _, err := io.ReadFull(conn, frame[:]); err != nil {
				t.Fatalf("burst %d, answer %d: %v", b, i, err)
			}
			if resp, err := DecodeResponse(frame[:]); err != nil || resp.Rejected || resp.Status != StatusAccepted {
				t.Fatalf("burst %d, answer %d: %+v, %v", b, i, resp, err)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := srv.Stats(); st.Admitted != 2*burst || st.Scored() != 2*burst {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHTTPScoreBatchCombinesOneBatch(t *testing.T) {
	srv := biasServer(t, 0.75, Config{Shards: 1, Threshold: 0.5})
	const n = 64
	reqs := make([]string, n)
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"source":"pen-%d","seq":%d,"class":1,"cues":[0.5]}`, i, i)
	}
	rec, payload := postJSON(t, srv.HTTPHandler(), "/score/batch", `{"requests":[`+strings.Join(reqs, ",")+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, payload)
	}
	if st := srv.Stats(); st.MaxBatch != n || st.Batches != 1 || st.Scored() != n {
		t.Fatalf("stats = %+v, want one batch of %d", st, n)
	}
}
