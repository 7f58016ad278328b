package scenario

import (
	"errors"
	"testing"

	"cqm/internal/adapt"
)

// fullCycleRecords is a valid one-cycle heal journal.
func fullCycleRecords() []adapt.Record {
	return []adapt.Record{
		{Seq: 1, Cycle: 1, Kind: adapt.KindTrigger, At: 10, Source: "pen", TriggerKind: "drift-ph", Window: adapt.WindowArtifactName, WindowHash: "abc", WindowLen: 8, BaselineAccept: 0.9},
		{Seq: 2, Cycle: 1, Kind: adapt.KindRetrainDone, At: 10, Candidate: adapt.CandidateArtifactName, Epochs: 3, StopReason: "stub"},
		{Seq: 3, Cycle: 1, Kind: adapt.KindGatePass, At: 10, CandidateRMSE: 0.2, IncumbentRMSE: 0.3, Agreement: 1},
		{Seq: 4, Cycle: 1, Kind: adapt.KindPromoted, At: 10, BaselineAccept: 0.9},
		{Seq: 5, Cycle: 1, Kind: adapt.KindCanaryPass, At: 14, BaselineAccept: 0.9, CanaryAccept: 1, CooldownUntil: 24},
	}
}

func TestRate(t *testing.T) {
	if got := rate(3, 4); got != 0.75 {
		t.Errorf("rate(3,4) = %v", got)
	}
	if got := rate(0, 0); got != 0 {
		t.Errorf("rate(0,0) = %v, want 0", got)
	}
}

// TestCheckScenarioPolarity pins the acceptance criteria themselves: a
// result telling the wrong story for its mode must be rejected, so a
// regression in the lifecycle cannot hide behind a green smoke.
func TestCheckScenarioPolarity(t *testing.T) {
	healRecords := func() []adapt.Record {
		return fullCycleRecords()
	}
	quarantineRecords := []adapt.Record{
		{Seq: 1, Cycle: 1, Kind: adapt.KindTrigger, At: 10},
		{Seq: 2, Cycle: 1, Kind: adapt.KindRetrainDone, At: 10},
		{Seq: 3, Cycle: 1, Kind: adapt.KindQuarantine, At: 10, Reason: "agreement"},
	}
	rollbackRecords := []adapt.Record{
		{Seq: 1, Cycle: 1, Kind: adapt.KindTrigger, At: 10},
		{Seq: 2, Cycle: 1, Kind: adapt.KindRetrainDone, At: 10},
		{Seq: 3, Cycle: 1, Kind: adapt.KindGatePass, At: 10},
		{Seq: 4, Cycle: 1, Kind: adapt.KindPromoted, At: 10},
		{Seq: 5, Cycle: 1, Kind: adapt.KindRollback, At: 14},
	}
	goodHeal := &ScenarioResult{
		Mode: ModeHeal, Records: healRecords(),
		AcceptHealthy: 0.9, AcceptDrift: 0.7, AcceptAfter: 0.85,
		ModelCRC: "aa", LastGoodCRC: "aa",
	}
	if err := CheckScenario(goodHeal); err != nil {
		t.Fatalf("valid heal result rejected: %v", err)
	}
	if err := CheckScenario(&ScenarioResult{Mode: ModeQuarantine, Records: quarantineRecords}); err != nil {
		t.Fatalf("valid quarantine result rejected: %v", err)
	}
	if err := CheckScenario(&ScenarioResult{
		Mode: ModeRollback, Records: rollbackRecords, ModelCRC: "aa", LastGoodCRC: "aa",
	}); err != nil {
		t.Fatalf("valid rollback result rejected: %v", err)
	}

	bad := []*ScenarioResult{
		// Heal journal that never promoted.
		{Mode: ModeHeal, Records: quarantineRecords, AcceptDrift: 0.7, AcceptAfter: 0.85, ModelCRC: "aa", LastGoodCRC: "aa"},
		// Heal that did not restore accept quality.
		{Mode: ModeHeal, Records: healRecords(), AcceptDrift: 0.8, AcceptAfter: 0.8, ModelCRC: "aa", LastGoodCRC: "aa"},
		// Heal whose last-good was never advanced to the promoted model.
		{Mode: ModeHeal, Records: healRecords(), AcceptDrift: 0.7, AcceptAfter: 0.85, ModelCRC: "aa", LastGoodCRC: "bb"},
		// Quarantine journal that promoted anyway.
		{Mode: ModeQuarantine, Records: healRecords()},
		// Rollback journal whose canary passed.
		{Mode: ModeRollback, Records: healRecords(), ModelCRC: "aa", LastGoodCRC: "aa"},
		// Rollback that left the bad model serving.
		{Mode: ModeRollback, Records: rollbackRecords, ModelCRC: "aa", LastGoodCRC: "bb"},
	}
	for i, res := range bad {
		if err := CheckScenario(res); err == nil {
			t.Errorf("bad result %d accepted", i)
		}
	}

	// An invalid journal fails before any mode-specific criterion.
	broken := healRecords()
	broken[1].Seq = 9
	if err := CheckScenario(&ScenarioResult{Mode: ModeHeal, Records: broken}); !errors.Is(err, adapt.ErrJournalInvariant) {
		t.Errorf("invalid journal: err = %v, want ErrJournalInvariant", err)
	}
}
