package serve

import (
	"io"
	"path/filepath"
	"testing"

	"cqm/internal/adapt"
	"cqm/internal/ckpt"
	"cqm/internal/particle"
	"cqm/internal/quality"
)

// TestBinaryFrontFeedsSupervisor wires a real adapt.Supervisor behind the
// binary front, as cqmserve -adapt does, and checks what the combiner
// hands it: every non-ε answer lands in the retrain window up to its size,
// every answer counts towards the accept baseline a trigger journals, and
// the server's accounting still balances.
func TestBinaryFrontFeedsSupervisor(t *testing.T) {
	const threshold = 0.45
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	if err := ckpt.WriteArtifact(modelPath, ckpt.Manifest{Kind: ckpt.KindMeasure}, variedMeasure(t)); err != nil {
		t.Fatal(err)
	}
	handle := ckpt.NewHandle(nil)
	watcher, err := ckpt.NewModelWatcher(ckpt.WatchConfig{Path: modelPath, DeferLastGood: true}, handle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := watcher.Poll(); err != nil {
		t.Fatal(err)
	}
	frames := equivalenceFrames()
	sup, err := adapt.New(adapt.Config{
		Dir:       filepath.Join(dir, "state"),
		ModelPath: modelPath,
		Watcher:   watcher,
		Handle:    handle,
		Threshold: threshold,
		// The accept baseline spans every frame of the run.
		CanaryWindow: len(frames),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sup.Close() })
	s, err := New(Config{Shards: 2, Threshold: threshold, Handle: handle, Adapt: sup})
	if err != nil {
		t.Fatal(err)
	}
	drainOnCleanup(t, s)
	conn := dialFront(t, binaryFront(t, s))

	// Phase one leaves the window partly filled, phase two overfills it.
	var served, accepted, nonEps int
	for _, phase := range [][]Request{frames[:128], frames[128:]} {
		var stream []byte
		for _, f := range phase {
			frame, err := EncodeRequest(f)
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, frame...)
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		var buf [particle.FrameLen]byte
		for range phase {
			if _, err := io.ReadFull(conn, buf[:]); err != nil {
				t.Fatalf("after %d answers: %v", served, err)
			}
			resp, err := DecodeResponse(buf[:])
			if err != nil || resp.Rejected {
				t.Fatalf("answer %+v, %v", resp, err)
			}
			served++
			if resp.Status != StatusEpsilon {
				nonEps++
			}
			if resp.Status == StatusAccepted {
				accepted++
			}
		}
		if got, want := sup.Status().WindowBuffered, min(nonEps, 256); got != want {
			t.Errorf("after %d frames: window holds %d decisions, want min(%d non-ε, 256) = %d",
				served, got, nonEps, want)
		}
	}
	if nonEps == served || accepted == 0 || accepted == nonEps {
		t.Fatalf("frames gave %d accepted, %d non-ε of %d: the run must mix all three outcomes", accepted, nonEps, served)
	}

	if !sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 100}) {
		t.Fatal("trigger not staged")
	}
	if worked, err := sup.Step(); err != nil || !worked {
		t.Fatalf("Step = %v, %v; want the cycle to open", worked, err)
	}
	recs := sup.Journal()
	if len(recs) != 1 || recs[0].Kind != adapt.KindTrigger {
		t.Fatalf("journal %+v, want one trigger record", recs)
	}
	if got, want := recs[0].BaselineAccept, float64(accepted)/float64(served); got != want {
		t.Errorf("journaled accept baseline %v, want the served accept fraction %v", got, want)
	}
	if recs[0].WindowLen != 256 {
		t.Errorf("snapshotted window holds %d decisions, want 256", recs[0].WindowLen)
	}

	s.Drain()
	st := s.Stats()
	if st.Admitted != uint64(served) || st.Admitted != st.Scored()+st.AdmittedRejects() {
		t.Errorf("admitted %d, scored %d + admitted rejects %d, want %d = scored + rejects",
			st.Admitted, st.Scored(), st.AdmittedRejects(), served)
	}
}
