package adapt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fullCycleRecords is a valid five-record heal cycle.
func fullCycleRecords() []Record {
	return []Record{
		{Seq: 1, Cycle: 1, Kind: KindTrigger, At: 10, Source: "pen", TriggerKind: "drift-ph", Window: WindowArtifactName, WindowHash: "abc", WindowLen: 8, BaselineAccept: 0.9},
		{Seq: 2, Cycle: 1, Kind: KindRetrainDone, At: 10, Candidate: CandidateArtifactName, Epochs: 3, StopReason: "stub"},
		{Seq: 3, Cycle: 1, Kind: KindGatePass, At: 10, CandidateRMSE: 0.2, IncumbentRMSE: 0.3, Agreement: 1},
		{Seq: 4, Cycle: 1, Kind: KindPromoted, At: 10, BaselineAccept: 0.9},
		{Seq: 5, Cycle: 1, Kind: KindCanaryPass, At: 14, BaselineAccept: 0.9, CanaryAccept: 1, CooldownUntil: 24},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fullCycleRecords() {
		r.Seq = 0 // Append assigns
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	re, got, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer re.Close()
	want := fullCycleRecords()
	if len(got) != len(want) {
		t.Fatalf("%d records after reopen, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := fullCycleRecords()
	for _, r := range recs[:2] {
		r.Seq = 0
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, JournalName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ name, tail string }{
		{"partial-line-no-newline", `{"record":{"seq":3,"cy`},
		{"garbage-with-newline", "not json at all\n"},
		{"bad-crc-final", `{"record":{"seq":3,"cycle":1,"kind":"gate-pass","at":10},"crc32c":"00000000"}` + "\n"},
	} {
		tail := tc.tail
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, append(append([]byte(nil), good...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			re, records, err := OpenJournal(dir)
			if err != nil {
				t.Fatalf("torn tail not truncated: %v", err)
			}
			defer re.Close()
			if n := len(records); n != 2 {
				t.Fatalf("%d records, want 2", n)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(good) {
				t.Error("journal bytes not restored to the committed prefix")
			}
		})
	}
}

func TestJournalMidCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fullCycleRecords()[:3] {
		r.Seq = 0
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first line's payload.
	corrupted := strings.Replace(string(data), `"kind":"trigger"`, `"kind":"trigggr"`, 1)
	if corrupted == string(data) {
		t.Fatal("corruption did not apply")
	}
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(dir); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("mid-journal corruption: err = %v, want ErrJournalCorrupt", err)
	}
}

func TestDecodeRecordCRCMismatch(t *testing.T) {
	line, err := EncodeRecord(Record{Seq: 1, Cycle: 1, Kind: KindTrigger, At: 1})
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(line), `"at":1`, `"at":2`, 1)
	if tampered == string(line) {
		t.Fatal("tamper did not apply")
	}
	if _, err := DecodeRecord([]byte(tampered)); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("tampered record: err = %v, want ErrJournalCorrupt", err)
	}
	if _, err := DecodeRecord(line); err != nil {
		t.Fatalf("untampered record: %v", err)
	}
}

func TestVerifyRecordsInvariants(t *testing.T) {
	base := fullCycleRecords()
	if err := VerifyRecords(base); err != nil {
		t.Fatalf("valid journal rejected: %v", err)
	}
	if err := VerifyRecords(nil); err != nil {
		t.Fatalf("empty journal rejected: %v", err)
	}
	// A journal ending mid-cycle (open cycle as the final records) is
	// legal — that is exactly the crash-resume state.
	if err := VerifyRecords(base[:3]); err != nil {
		t.Fatalf("open-cycle journal rejected: %v", err)
	}

	mutate := func(f func(r []Record) []Record) []Record {
		c := append([]Record(nil), fullCycleRecords()...)
		return f(c)
	}
	bad := map[string][]Record{
		"seq gap": mutate(func(r []Record) []Record {
			r[2].Seq = 7
			return r
		}),
		"opens with non-trigger": mutate(func(r []Record) []Record {
			return r[1:]
		}),
		"illegal transition": mutate(func(r []Record) []Record {
			r[2].Kind = KindPromoted // retrain-done → promoted skips the gate
			return r
		}),
		"cycle number jump": mutate(func(r []Record) []Record {
			r[0].Cycle = 3
			for i := range r {
				r[i].Cycle = 3
			}
			return r
		}),
		"cycle switch mid-open": mutate(func(r []Record) []Record {
			r[3].Cycle = 2
			return r
		}),
		"time goes backwards": mutate(func(r []Record) []Record {
			r[4].At = 5 // before the trigger at 10
			return r
		}),
		"record after terminal without trigger": mutate(func(r []Record) []Record {
			return append(r, Record{Seq: 6, Cycle: 2, Kind: KindRetrainDone, At: 20})
		}),
	}
	for name, recs := range bad {
		if err := VerifyRecords(recs); !errors.Is(err, ErrJournalInvariant) {
			t.Errorf("%s: err = %v, want ErrJournalInvariant", name, err)
		}
	}
}

func TestVerifyJournalMissingArtifacts(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := fullCycleRecords()[0]
	r.Seq = 0
	if err := j.Append(r); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := VerifyJournal(dir); !errors.Is(err, ErrJournalInvariant) {
		t.Fatalf("missing window artifact: err = %v, want ErrJournalInvariant", err)
	}
	// Write-ahead restored: the artifact exists, verification passes.
	if err := os.MkdirAll(filepath.Join(dir, CycleDirName(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, CycleDirName(1), WindowArtifactName), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyJournal(dir); err != nil {
		t.Fatalf("VerifyJournal with artifact present: %v", err)
	}
}
