package quality

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cqm/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata/")

// goldenEngine builds an engine + tracer over a fixed scripted stream so
// the /quality JSON and the Prometheus exposition are reproducible
// byte-for-byte.
func goldenEngine() (*Engine, *Tracer, *obs.Registry) {
	reg := obs.NewRegistry()
	ref := testRef()
	ref.BaselineD = 0.1
	e := NewEngine(Config{Window: 8, Threshold: 0.6, Reference: ref, Metrics: reg})
	tr := NewTracer(4, 4, reg)

	qs := []float64{0.91, 0.88, 0.05, 0.93, 0.9, 0.87, 0.92, 0.9, 0.85, 0.94}
	for i, q := range qs {
		at := float64(i)
		hasQ := i != 5 // one ε decision
		e.Observe(Observation{Source: "pen-a", At: at, Q: q, HasQ: hasQ, Degraded: i == 2})
		if tr.Begin("pen-a", i, at) {
			tr.Record(i, StageScore, at+0.01, "scored")
			tr.Record(i, StagePublish, at+0.02, "")
			tr.Record(i, StageDeliver, at+0.05, "camera")
			tr.Record(i, StageDecide, at+0.05, "camera:accept")
		}
	}
	// A second source that collapses, so alerts and PH epochs appear.
	for i := 0; i < 24; i++ {
		q := 0.9
		if i >= 8 {
			q = 0.04
		}
		e.Observe(Observation{Source: "pen-b", At: 100 + float64(i), Q: q, HasQ: true})
	}
	return e, tr, reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/quality -update-golden` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestQualityEndpointGolden(t *testing.T) {
	e, tr, _ := goldenEngine()
	rec := httptest.NewRecorder()
	Handler(e, tr).ServeHTTP(rec, httptest.NewRequest("GET", "/quality", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.Bytes()
	if bytes.Contains(body, []byte("NaN")) || bytes.Contains(body, []byte("Inf")) {
		t.Error("non-finite value leaked into the JSON payload")
	}
	checkGolden(t, "quality_endpoint.golden", body)

	// ?traces=0 must suppress the trace dump but keep the report.
	rec = httptest.NewRecorder()
	Handler(e, tr).ServeHTTP(rec, httptest.NewRequest("GET", "/quality?traces=0", nil))
	if bytes.Contains(rec.Body.Bytes(), []byte(`"traces"`)) {
		t.Error("?traces=0 still rendered traces")
	}
}

func TestQualityPrometheusGolden(t *testing.T) {
	e, _, reg := goldenEngine()
	_ = e.Report() // refresh report-time gauges (health, alerts)
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The le="+Inf" terminal bucket label is part of the format; sample
	// values themselves must be finite.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		value := line[strings.LastIndexByte(line, ' ')+1:]
		if strings.Contains(value, "NaN") || strings.Contains(value, "Inf") {
			t.Errorf("non-finite sample value in %q", line)
		}
	}
	for _, name := range []string{
		MetricObservations, MetricEpsilons, MetricDrift, MetricSources,
		MetricHealth, MetricAlerts, MetricTraceStageSeconds,
		MetricTracesSampled,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition is missing %s", name)
		}
	}
	checkGolden(t, "quality_metrics.golden", b.Bytes())
}

func TestQualityHandlerNilSafe(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/quality", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"health": "optimal"`)) {
		t.Errorf("nil-engine payload = %s", rec.Body.String())
	}
}
