package adapt

import (
	"encoding/json"
	"net/http"
)

// Status is the supervisor's externally visible state, served on /adapt.
type Status struct {
	// State is the state-machine position ("idle", "retraining", ...).
	State string `json:"state"`
	// Cycle is the current or last adaptation cycle number.
	Cycle int64 `json:"cycle"`
	// CooldownUntil is the virtual time before which triggers are ignored.
	CooldownUntil float64 `json:"cooldown_until"`
	// FailStreak counts consecutive bad cycle outcomes (back-off input).
	FailStreak int `json:"fail_streak"`
	// WindowBuffered is the pseudo-labelled observations currently held.
	WindowBuffered int `json:"window_buffered"`
	// Counters over the whole journal.
	Triggers    int `json:"triggers"`
	Retrains    int `json:"retrains"`
	Quarantined int `json:"quarantined"`
	Promotions  int `json:"promotions"`
	Rollbacks   int `json:"rollbacks"`
	CanaryPass  int `json:"canary_passes"`
	// LastRecord is the newest journal record, if any.
	LastRecord *Record `json:"last_record,omitempty"`
	// LastError is the newest internal error that had no caller to return
	// to (journal append or last-good persistence failing during the
	// canary close) — non-empty means journal and disk may diverge.
	LastError string `json:"last_error,omitempty"`
}

// Status assembles the current status snapshot from fields apply keeps,
// so it costs the same however long the journal grows.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		State:          s.state.String(),
		Cycle:          s.cycle,
		CooldownUntil:  s.cooldownUntil,
		FailStreak:     s.failStreak,
		WindowBuffered: s.windowN,
		Triggers:       s.kinds[KindTrigger],
		Retrains:       s.kinds[KindRetrainDone],
		Quarantined:    s.kinds[KindQuarantine],
		Promotions:     s.kinds[KindPromoted],
		Rollbacks:      s.kinds[KindRollback],
		CanaryPass:     s.kinds[KindCanaryPass],
		LastError:      s.lastErr,
	}
	if s.last.Seq > 0 {
		last := s.last
		st.LastRecord = &last
	}
	return st
}

// Handler serves the status as JSON — the /adapt endpoint.
func (s *Supervisor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Status())
	})
}
