package scenario

import (
	"strings"
	"testing"

	"cqm/internal/adapt"
	"cqm/internal/obs"
)

// TestRunDemo exercises the full demo sweep — every scenario mode plus the
// cross-worker replay — with a live metrics registry, exactly as the CI
// smoke invokes it through cqmeval -adapt.
func TestRunDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("full demo sweep in -short mode")
	}
	reg := obs.NewRegistry()
	report, err := RunDemo(DemoConfig{Dir: t.TempDir(), Seed: 42, Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatalf("RunDemo: %v\n%s", err, report)
	}
	for _, want := range []string{"heal", "quarantine", "rollback", "bit-identical"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	snap := reg.Snapshot()
	counts := make(map[string]bool)
	for _, c := range snap.Counters {
		if c.Value > 0 {
			counts[c.Name] = true
		}
	}
	for _, name := range []string{adapt.MetricTriggers, adapt.MetricRetrainsStarted, adapt.MetricPromotions, adapt.MetricRollbacks, adapt.MetricQuarantined} {
		if !counts[name] {
			t.Errorf("metric %s never incremented across the demo sweep", name)
		}
	}
}
