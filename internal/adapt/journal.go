// Package adapt is the self-healing model lifecycle: a crash-safe
// supervisor that turns structured quality triggers into a
// retrain→validate→promote→watch state machine with automatic rollback.
//
// Every transition is committed by one record in an append-only,
// checksummed journal; the record is the commit point, and any artifact a
// record references (the retrain window snapshot, the candidate model) is
// persisted atomically before the record that names it. A crash at any
// journal boundary therefore resumes deterministically: the journal is
// replayed, the open cycle's state is reconstructed, and the pending
// transition re-runs on the same persisted inputs. The package never reads
// a wall clock or randomness — all timestamps are virtual, carried in from
// the decision stream — so under virtual time with a fixed seed the entire
// loop replays bit-identically.
package adapt

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

// JournalName is the journal file name inside the adaptation directory.
const JournalName = "journal.log"

// Record kinds, in state-machine order. A cycle opens with KindTrigger and
// closes with exactly one terminal record.
const (
	// KindTrigger opens a cycle: a drift trigger was accepted and the
	// retrain window snapshot persisted.
	KindTrigger = "trigger"
	// KindRetrainDone commits a finished shadow retrain; the candidate
	// artifact referenced by the record is on disk.
	KindRetrainDone = "retrain-done"
	// KindRetrainFailed terminally abandons a cycle whose retrain errored.
	KindRetrainFailed = "retrain-failed"
	// KindGatePass commits a validation-gate pass; promotion is next.
	KindGatePass = "gate-pass"
	// KindQuarantine terminally rejects a candidate at the validation gate,
	// with a structured reason.
	KindQuarantine = "quarantine"
	// KindPromoted commits a hot promotion: the candidate is the serving
	// model and the canary watch is open.
	KindPromoted = "promoted"
	// KindCanaryPass terminally closes a cycle whose promoted model held
	// the pre-promotion baseline through the canary window.
	KindCanaryPass = "canary-pass"
	// KindRollback terminally closes a cycle by restoring the last-good
	// model after a canary regression.
	KindRollback = "rollback"
	// KindAbandoned terminally closes a cycle that could not proceed (e.g.
	// the incumbent disappeared mid-cycle).
	KindAbandoned = "abandoned"
)

// Typed journal errors.
var (
	// ErrJournalCorrupt reports a record that fails to decode or checksum
	// somewhere other than the torn tail.
	ErrJournalCorrupt = errors.New("adapt: journal corrupt")
	// ErrJournalInvariant reports a journal whose record sequence violates
	// the state-machine invariants.
	ErrJournalInvariant = errors.New("adapt: journal invariant violated")
)

// Record is one journaled lifecycle transition. Seq is contiguous from 1
// across the whole journal; Cycle groups the records of one adaptation
// cycle. At is the record's virtual-time anchor: the trigger time for
// mid-cycle transitions (retrain and gating consume no virtual time) and
// the completing decision's time for canary outcomes.
type Record struct {
	// Seq is the 1-based journal sequence number.
	Seq int64 `json:"seq"`
	// Cycle is the 1-based adaptation-cycle number.
	Cycle int64 `json:"cycle"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// At is the virtual-time anchor in seconds.
	At float64 `json:"at"`
	// Source is the quality-stream source that triggered the cycle.
	Source string `json:"source,omitempty"`
	// TriggerKind is the detector that fired (quality.TriggerPH/TriggerKS).
	TriggerKind string `json:"trigger_kind,omitempty"`
	// Window is the retrain-window artifact file name inside the cycle dir.
	Window string `json:"window,omitempty"`
	// WindowHash fingerprints the window payload (ckpt.HashConfig).
	WindowHash string `json:"window_hash,omitempty"`
	// WindowLen is the number of pseudo-labelled observations snapshotted.
	WindowLen int `json:"window_len,omitempty"`
	// Candidate is the candidate-model artifact file name in the cycle dir.
	Candidate string `json:"candidate,omitempty"`
	// Epochs is the number of shadow-retrain epochs that ran.
	Epochs int `json:"epochs,omitempty"`
	// StopReason is the anfis stop reason of the shadow retrain.
	StopReason string `json:"stop_reason,omitempty"`
	// CandidateRMSE and IncumbentRMSE are the validation-slice errors the
	// gate compared.
	CandidateRMSE float64 `json:"candidate_rmse,omitempty"`
	// IncumbentRMSE is documented with CandidateRMSE.
	IncumbentRMSE float64 `json:"incumbent_rmse,omitempty"`
	// Agreement is the accept/discard agreement on the validation slice.
	Agreement float64 `json:"agreement,omitempty"`
	// Reason is the structured reason of a quarantine, rollback, failure,
	// or abandonment.
	Reason string `json:"reason,omitempty"`
	// BaselineAccept is the pre-promotion accept rate the canary compares
	// against.
	BaselineAccept float64 `json:"baseline_accept,omitempty"`
	// CanaryAccept is the accept rate observed over the canary window.
	CanaryAccept float64 `json:"canary_accept,omitempty"`
	// CooldownUntil is the virtual time before which new triggers are
	// ignored, set on terminal records.
	CooldownUntil float64 `json:"cooldown_until,omitempty"`
}

// journalLine is the on-disk line format: the record payload plus a CRC32C
// (Castagnoli, lowercase hex) of the compact payload bytes — the same
// integrity scheme ckpt artifacts use, one line per record.
type journalLine struct {
	Record   json.RawMessage `json:"record"`
	Checksum string          `json:"crc32c"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksumOf(data []byte) string {
	sum := crc32.Checksum(data, castagnoli)
	return hex.EncodeToString([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
}

// FileCRC fingerprints a file's bytes (CRC32C hex), the same checksum a
// journal line carries.
func FileCRC(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("adapt: fingerprinting %s: %w", path, err)
	}
	return checksumOf(data), nil
}

// EncodeRecord renders one journal line (without the trailing newline).
func EncodeRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("adapt: encoding record: %w", err)
	}
	line, err := json.Marshal(journalLine{Record: payload, Checksum: checksumOf(payload)})
	if err != nil {
		return nil, fmt.Errorf("adapt: encoding journal line: %w", err)
	}
	return line, nil
}

// DecodeRecord parses and verifies one journal line. It never panics,
// whatever the input — FuzzAdaptJournalDecode pins that.
func DecodeRecord(line []byte) (Record, error) {
	var jl journalLine
	if err := json.Unmarshal(line, &jl); err != nil {
		return Record{}, fmt.Errorf("%w: line: %v", ErrJournalCorrupt, err)
	}
	if len(jl.Record) == 0 {
		return Record{}, fmt.Errorf("%w: empty record", ErrJournalCorrupt)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, jl.Record); err != nil {
		return Record{}, fmt.Errorf("%w: record: %v", ErrJournalCorrupt, err)
	}
	if got := checksumOf(compact.Bytes()); got != jl.Checksum {
		return Record{}, fmt.Errorf("%w: crc32c %s, line says %q", ErrJournalCorrupt, got, jl.Checksum)
	}
	var r Record
	if err := json.Unmarshal(jl.Record, &r); err != nil {
		return Record{}, fmt.Errorf("%w: record: %v", ErrJournalCorrupt, err)
	}
	return r, nil
}

// Journal is the append-only transition log. Appends are the commit points
// of the state machine: each record is written as one checksummed line,
// fsynced before Append returns. The file is the records' only copy.
type Journal struct {
	path string
	f    *os.File
	seq  int64 // Seq of the newest committed record: the committed count
}

// OpenJournal opens (or creates) the journal at dir/JournalName and
// returns its committed records, oldest first, for the caller to replay
// once; the Journal keeps only their count. A torn final line — the
// footprint of a crash mid-append — is truncated away silently; a corrupt
// line anywhere else is refused with ErrJournalCorrupt, because silent
// loss of committed records would break the resume contract.
func OpenJournal(dir string) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("adapt: creating journal dir: %w", err)
	}
	path := filepath.Join(dir, JournalName)
	records, goodLen, torn, err := readJournal(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	if torn {
		if err := os.Truncate(path, int64(goodLen)); err != nil {
			return nil, nil, fmt.Errorf("adapt: truncating torn journal tail: %w", err)
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("adapt: opening journal for append: %w", err)
	}
	return &Journal{path: path, f: f, seq: int64(len(records))}, records, nil
}

// readJournal is the one journal reader, behind OpenJournal,
// VerifyJournal and Supervisor.Journal: it reads the file at path, decodes
// its lines in order and checks the records with VerifyRecords, returning
// them also when only that check fails. A torn final line — no newline, or
// one that fails to decode — is dropped: goodLen is the length of the
// decoded prefix and torn reports bytes past it. An undecodable line with
// lines after it is refused with ErrJournalCorrupt.
func readJournal(path string) (records []Record, goodLen int, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("adapt: reading journal: %w", err)
	}
	for goodLen < len(data) {
		nl := bytes.IndexByte(data[goodLen:], '\n')
		if nl < 0 {
			break
		}
		r, decErr := DecodeRecord(data[goodLen : goodLen+nl])
		if decErr != nil {
			if goodLen+nl+1 >= len(data) {
				break
			}
			return nil, 0, false, fmt.Errorf("%w: record %d undecodable with committed records after it: %v",
				ErrJournalCorrupt, len(records)+1, decErr)
		}
		records = append(records, r)
		goodLen += nl + 1
	}
	return records, goodLen, goodLen < len(data), VerifyRecords(records)
}

// Append commits one record: sequence-stamped, checksummed, written, and
// fsynced. The record's Seq field is assigned here.
func (j *Journal) Append(r Record) error {
	r.Seq = j.seq + 1
	line, err := EncodeRecord(r)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("adapt: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("adapt: syncing journal: %w", err)
	}
	j.seq = r.Seq
	return nil
}

// Close releases the journal file handle.
func (j *Journal) Close() error { return j.f.Close() }

// terminalKinds closes a cycle.
var terminalKinds = map[string]bool{
	KindRetrainFailed: true,
	KindQuarantine:    true,
	KindCanaryPass:    true,
	KindRollback:      true,
	KindAbandoned:     true,
}

// nextKinds maps each non-terminal kind to its legal successors within a
// cycle.
var nextKinds = map[string]map[string]bool{
	KindTrigger: {
		KindRetrainDone: true, KindRetrainFailed: true, KindAbandoned: true,
	},
	KindRetrainDone: {
		KindGatePass: true, KindQuarantine: true, KindAbandoned: true,
	},
	KindGatePass: {
		KindPromoted: true, KindAbandoned: true,
	},
	KindPromoted: {
		KindCanaryPass: true, KindRollback: true, KindAbandoned: true,
	},
}

// VerifyRecords checks the journal's state-machine invariants: contiguous
// sequence numbers, cycles numbered consecutively and opened only by
// triggers, legal transitions within each cycle, at most one open (non
// terminated) cycle and only as the final records, and non-decreasing
// virtual time within a cycle. The cqmeval -adapt smoke fails the build on
// any violation.
func VerifyRecords(records []Record) error {
	openCycle := int64(0) // cycle currently open, 0 when none
	lastKind := ""
	lastAt := 0.0
	cycles := int64(0)
	for i, r := range records {
		if r.Seq != int64(i)+1 {
			return fmt.Errorf("%w: record %d has seq %d", ErrJournalInvariant, i+1, r.Seq)
		}
		if openCycle == 0 {
			if r.Kind != KindTrigger {
				return fmt.Errorf("%w: record %d kind %q outside any open cycle", ErrJournalInvariant, r.Seq, r.Kind)
			}
			if r.Cycle != cycles+1 {
				return fmt.Errorf("%w: record %d opens cycle %d after cycle %d", ErrJournalInvariant, r.Seq, r.Cycle, cycles)
			}
			cycles = r.Cycle
			openCycle = r.Cycle
			lastKind = r.Kind
			lastAt = r.At
			continue
		}
		if r.Cycle != openCycle {
			return fmt.Errorf("%w: record %d belongs to cycle %d while cycle %d is open", ErrJournalInvariant, r.Seq, r.Cycle, openCycle)
		}
		if !nextKinds[lastKind][r.Kind] {
			return fmt.Errorf("%w: record %d transition %q→%q", ErrJournalInvariant, r.Seq, lastKind, r.Kind)
		}
		if r.At < lastAt {
			return fmt.Errorf("%w: record %d time %v before %v", ErrJournalInvariant, r.Seq, r.At, lastAt)
		}
		lastAt = r.At
		lastKind = r.Kind
		if terminalKinds[r.Kind] {
			openCycle = 0
		}
	}
	return nil
}

// VerifyJournal verifies the journal in dir without mutating it and
// returns its records: the state-machine invariants of VerifyRecords,
// and that the window and candidate artifacts every record names exist in
// its cycle directory, so the write-ahead contract — artifacts land before
// the record naming them — is enforced, not assumed.
func VerifyJournal(dir string) ([]Record, error) {
	records, _, _, err := readJournal(filepath.Join(dir, JournalName))
	if err != nil {
		return records, err
	}
	for _, r := range records {
		for _, name := range []string{r.Window, r.Candidate} {
			if name == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, CycleDirName(r.Cycle), name)); err != nil {
				return records, fmt.Errorf("%w: record %d references missing artifact %s: %v",
					ErrJournalInvariant, r.Seq, name, err)
			}
		}
	}
	return records, nil
}

// CycleDirName returns the per-cycle artifact directory name.
func CycleDirName(cycle int64) string {
	return fmt.Sprintf("cycle-%06d", cycle)
}
