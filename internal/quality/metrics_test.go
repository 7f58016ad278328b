package quality

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cqm/internal/obs"
)

// qualitySamples scrapes reg and returns its cqm_quality_* sample lines.
func qualitySamples(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "cqm_quality_") {
			out = append(out, line)
		}
	}
	return out
}

// TestHealthGaugeStartsHealthy pins the health gauge of a fresh engine at
// the empty report's score: before anyone builds a report, /metrics must
// agree with /quality that nothing is wrong.
func TestHealthGaugeStartsHealthy(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(Config{Metrics: reg})
	if samples := qualitySamples(t, reg); !slices.Contains(samples, MetricHealth+" 1") {
		t.Errorf("fresh engine exposes no %q sample; got %q", MetricHealth+" 1", samples)
	}
	if got := e.Report().HealthScore; got != 1 {
		t.Errorf("empty report health score = %v, want 1", got)
	}
}

// TestQualitySeriesFixedCardinality pins the engine's /metrics footprint:
// the number of cqm_quality_* samples does not grow with the number of
// tracked sources, and no sample names a source.
func TestQualitySeriesFixedCardinality(t *testing.T) {
	count := func(sources int) int {
		reg := obs.NewRegistry()
		e := NewEngine(Config{Threshold: 0.6, Reference: testRef(), Metrics: reg})
		for s := 0; s < sources; s++ {
			for _, o := range streamFor(fmt.Sprintf("pen-%d", s), 8, int64(s)) {
				e.Observe(o)
			}
		}
		_ = e.Report()
		samples := qualitySamples(t, reg)
		for _, line := range samples {
			if strings.Contains(line, "source=") {
				t.Errorf("%d sources: sample %q carries a source label", sources, line)
				break
			}
		}
		if want := fmt.Sprintf("%s %d", MetricSources, sources); !slices.Contains(samples, want) {
			t.Errorf("%d sources: no %q sample", sources, want)
		}
		return len(samples)
	}
	if few, many := count(2), count(500); few != many {
		t.Errorf("cqm_quality_* samples: %d at 2 sources, %d at 500; want equal", few, many)
	}
}
