package adapt

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"cqm/internal/ckpt"
	"cqm/internal/quality"
)

// writeFlapJournal writes a valid journal of cycles trigger → retrain-failed
// cycles to dir/JournalName with EncodeRecord: the history a long flap
// storm leaves, without one fsynced Append per record. The triggers name
// no window artifact, so VerifyJournal accepts the directory as it is.
func writeFlapJournal(tb testing.TB, dir string, cycles int) {
	tb.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	for c := int64(1); c <= int64(cycles); c++ {
		at := float64(10 * c)
		for _, r := range []Record{
			{Seq: 2*c - 1, Cycle: c, Kind: KindTrigger, At: at, Source: "pen", TriggerKind: quality.TriggerPH, WindowHash: "abc", WindowLen: 8, BaselineAccept: 0.9},
			{Seq: 2 * c, Cycle: c, Kind: KindRetrainFailed, At: at, Reason: errTrainBoom.Error(), CooldownUntil: at + 10},
		} {
			line, err := EncodeRecord(r)
			if err != nil {
				tb.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	if err := os.WriteFile(filepath.Join(dir, JournalName), buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// TestReplayRetainsNoHistory resumes a supervisor over a 10,000-record
// journal: replay must leave only the state machine on the heap, not the
// records, and Status's counters and last record must still equal a
// recount over the journal on disk.
func TestReplayRetainsNoHistory(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	writeFlapJournal(t, state, 5000)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := newHarness(t, dir, smallConfig(), biasMeasure(t, 0.7), errorTrain)
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer h.sup.Close()
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("resuming over 10,000 records retains %d B of heap", retained)
	if retained > 256<<10 {
		t.Errorf("resuming over 10,000 records retains %d B of heap, want at most 256 KiB", retained)
	}

	records, err := VerifyJournal(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 10000 {
		t.Fatalf("journal holds %d records, want 10000", len(records))
	}
	counts := make(map[string]int)
	for _, r := range records {
		counts[r.Kind]++
	}
	st := h.sup.Status()
	for kind, got := range map[string]int{
		KindTrigger: st.Triggers, KindRetrainDone: st.Retrains, KindQuarantine: st.Quarantined,
		KindPromoted: st.Promotions, KindRollback: st.Rollbacks, KindCanaryPass: st.CanaryPass,
	} {
		if got != counts[kind] {
			t.Errorf("Status counts %d %s records, the journal holds %d", got, kind, counts[kind])
		}
	}
	if st.LastRecord == nil || *st.LastRecord != records[len(records)-1] {
		t.Errorf("Status.LastRecord = %+v, want %+v", st.LastRecord, records[len(records)-1])
	}
}

// TestStatusAndJournalDuringSteps reads Status and Journal in a loop while
// a heal cycle and a rollback cycle run. Journal decodes the file without
// the supervisor lock, so every snapshot must still be a valid prefix of
// the final journal that a later Status has already applied, and every
// Status must name one of its records.
func TestStatusAndJournalDuringSteps(t *testing.T) {
	cfg := smallConfig()
	h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), stubTrain(biasMeasure(t, 0.8)))
	defer h.sup.Close()

	var (
		wg       sync.WaitGroup
		once     sync.Once
		stop     = make(chan struct{})
		byLen    = make(map[int][]Record) // one snapshot per length seen
		statuses []Status                 // one per last record seen
	)
	stopReader := func() { once.Do(func() { close(stop); wg.Wait() }) }
	defer stopReader()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := h.sup.Journal()
			st := h.sup.Status()
			if err := VerifyRecords(snap); err != nil {
				t.Errorf("snapshot of %d records: %v", len(snap), err)
				return
			}
			// Every record Journal returned was applied before it
			// returned, so a later Status has seen it.
			if len(snap) > 0 && (st.LastRecord == nil || st.LastRecord.Seq < int64(len(snap))) {
				t.Errorf("Journal returned %d records before Status showed the last: %+v", len(snap), st.LastRecord)
				return
			}
			if prev, ok := byLen[len(snap)]; ok && !slices.Equal(prev, snap) {
				t.Errorf("two snapshots of %d records differ: %+v, %+v", len(snap), prev, snap)
				return
			}
			byLen[len(snap)] = snap
			if st.LastRecord != nil && (len(statuses) == 0 || statuses[len(statuses)-1].LastRecord.Seq != st.LastRecord.Seq) {
				statuses = append(statuses, st)
			}
		}
	}()

	closeWith := func(q, at float64) {
		for i := 0; i < cfg.CanaryWindow; i++ {
			h.sup.Decide(mkDecision(at+float64(i), q, 0.5))
		}
		if err := h.sup.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	toCanary(t, h, 10, 10)
	closeWith(0.9, 11)
	toCanary(t, h, 10, 30)
	closeWith(0.1, 31)
	stopReader()

	final := h.sup.Journal()
	var kinds []string
	for _, r := range final {
		kinds = append(kinds, r.Kind)
	}
	want := []string{KindTrigger, KindRetrainDone, KindGatePass, KindPromoted, KindCanaryPass,
		KindTrigger, KindRetrainDone, KindGatePass, KindPromoted, KindRollback}
	if !slices.Equal(kinds, want) {
		t.Fatalf("journal %v, want %v", kinds, want)
	}
	for n, snap := range byLen {
		if n > len(final) || !slices.Equal(snap, final[:n]) {
			t.Errorf("snapshot of %d records is not a prefix of the final journal", n)
		}
	}
	for _, st := range statuses {
		last := st.LastRecord
		if last.Seq > int64(len(final)) || *last != final[last.Seq-1] {
			t.Errorf("Status.LastRecord %+v is not a journal record", *last)
			continue
		}
		counts := make(map[string]int)
		for _, r := range final[:last.Seq] {
			counts[r.Kind]++
		}
		if st.Triggers != counts[KindTrigger] || st.Promotions != counts[KindPromoted] || st.Rollbacks != counts[KindRollback] {
			t.Errorf("at record %d Status counts %d triggers, %d promotions, %d rollbacks; the journal %v",
				last.Seq, st.Triggers, st.Promotions, st.Rollbacks, counts)
		}
	}
	if st := h.sup.Status(); st.LastError != "" {
		t.Errorf("Status.LastError = %q after the run", st.LastError)
	}
}

// statusSink keeps BenchmarkStatus's calls from being optimised away.
var statusSink Status

// BenchmarkStatus times one Status call on a supervisor resumed over a
// flap-storm journal of each length. Status reads only fields apply keeps,
// so both lengths should cost the same.
func BenchmarkStatus(b *testing.B) {
	for _, records := range []int{10, 10000} {
		b.Run("records="+strconv.Itoa(records), func(b *testing.B) {
			dir := b.TempDir()
			writeFlapJournal(b, dir, records/2)
			cfg := smallConfig()
			cfg.Dir, cfg.ModelPath, cfg.Handle = dir, filepath.Join(dir, "model.json"), ckpt.NewHandle(nil)
			var err error
			if cfg.Watcher, err = ckpt.NewModelWatcher(ckpt.WatchConfig{Path: cfg.ModelPath, DeferLastGood: true}, cfg.Handle); err != nil {
				b.Fatal(err)
			}
			sup, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sup.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				statusSink = sup.Status()
			}
		})
	}
}
