package awareoffice

import (
	"math/rand"
	"reflect"
	"testing"

	"cqm/internal/fault"
	"cqm/internal/feature"
	"cqm/internal/sensor"
)

// stubClassifier labels every window ContextWriting — enough to generate
// deterministic bus traffic without training a real recognizer.
type stubClassifier struct{}

func (stubClassifier) Classify([]float64) (sensor.Context, error) {
	return sensor.ContextWriting, nil
}

func (stubClassifier) Name() string { return "stub" }

// recorder is a bus subscriber that keeps every delivered event.
type recorder struct {
	name   string
	events []Event
}

func (r *recorder) attach(bus *Bus) {
	bus.Subscribe(r.name, func(ev Event) { r.events = append(r.events, ev) })
}

func TestSeqWraparoundNotDuplicate(t *testing.T) {
	w := &sourceWindow{}
	// March straight through the 16-bit wrap: every new sequence is fresh.
	for s := 65530; s < 65536+10; s++ {
		if w.seen(uint16(s)) {
			t.Fatalf("seq %d (wire %d) flagged duplicate on first sight", s, uint16(s))
		}
	}
	// Replays on both sides of the wrap are still caught.
	for _, s := range []uint16{65535, 0, 3, 9} {
		if !w.seen(s) {
			t.Fatalf("replayed seq %d not flagged duplicate", s)
		}
	}
}

func TestSeqDedupRebootHeuristic(t *testing.T) {
	w := &sourceWindow{}
	if w.seen(5000) {
		t.Fatal("first sequence flagged duplicate")
	}
	// A sequence more than a full window in the past is a rebooted
	// publisher restarting its numbering, not a duplicate.
	if w.seen(0) {
		t.Fatal("post-reboot seq 0 flagged duplicate")
	}
	if w.seen(1) {
		t.Fatal("post-reboot seq 1 flagged duplicate")
	}
	if !w.seen(0) {
		t.Fatal("replay after reboot not flagged duplicate")
	}
}

func TestSeqDedupReordering(t *testing.T) {
	w := &sourceWindow{}
	for _, s := range []uint16{10, 12, 11, 14} {
		if w.seen(s) {
			t.Fatalf("fresh seq %d flagged duplicate", s)
		}
	}
	for _, s := range []uint16{12, 11, 10, 14} {
		if !w.seen(s) {
			t.Fatalf("replayed seq %d not flagged duplicate", s)
		}
	}
}

func TestCameraDedupKeyedBySource(t *testing.T) {
	// Two publishers sharing a sequence number must not suppress each
	// other — the old map keyed by Seq alone did exactly that.
	cam := &Camera{}
	cam.handle(Event{Source: "pen-a", Context: sensor.ContextWriting, Seq: 7})
	cam.handle(Event{Source: "pen-b", Context: sensor.ContextWriting, Seq: 7})
	if got := cam.Duplicates(); got != 0 {
		t.Fatalf("distinct sources sharing a seq suppressed %d times, want 0", got)
	}
	if got := cam.Accepted(); got != 2 {
		t.Fatalf("accepted %d events, want 2", got)
	}
	cam.handle(Event{Source: "pen-a", Context: sensor.ContextWriting, Seq: 7})
	if got := cam.Duplicates(); got != 1 {
		t.Fatalf("true replay suppressed %d times, want 1", got)
	}
}

func TestCameraDedupStateBounded(t *testing.T) {
	cam := &Camera{}
	// A long-running publisher cycles its 16-bit sequence space many
	// times; the receiver's dedup state must stay one fixed-size window.
	for s := 0; s < 300000; s++ {
		cam.handle(Event{Source: "pen", Context: sensor.ContextWriting, Seq: s})
	}
	if got := cam.seen.Sources(); got != 1 {
		t.Fatalf("tracking %d sources, want 1", got)
	}
	if got := cam.Duplicates(); got != 0 {
		t.Fatalf("monotonic stream suppressed %d times, want 0", got)
	}
}

func TestPenScheduleReboot(t *testing.T) {
	sim := NewSimulation(3)
	bus, err := NewBus(sim, Link{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{name: "rec"}
	rec.attach(bus)
	pen := &Pen{Classifier: stubClassifier{}}
	pen.Attach(bus)

	rng := rand.New(rand.NewSource(3))
	readings, err := sensor.OfficeSession(sensor.DefaultStyle()).Run(rng)
	if err != nil {
		t.Fatal(err)
	}
	end := readings[len(readings)-1].T
	if _, err := pen.Feed(sim, readings); err != nil {
		t.Fatal(err)
	}
	if err := pen.ScheduleReboot(sim, end+1); err != nil {
		t.Fatal(err)
	}
	second := make([]sensor.Reading, len(readings))
	copy(second, readings)
	for i := range second {
		second[i].T += end + 2
	}
	if _, err := pen.Feed(sim, second); err != nil {
		t.Fatal(err)
	}
	sim.Run(2*end + 5)

	// The sequence numbering must restart at zero after the reboot.
	reboots := 0
	for i := 1; i < len(rec.events); i++ {
		if rec.events[i].Seq == 0 && rec.events[i-1].Seq > 0 {
			reboots++
		}
	}
	if reboots != 1 {
		t.Fatalf("observed %d sequence resets, want 1", reboots)
	}
}

func TestReliabilityBackoffPolicy(t *testing.T) {
	r := Reliability{}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	want := []float64{0.05, 0.1, 0.2, 0.4, 0.4, 0.4}
	for try, w := range want {
		if got := r.backoff(try, rng); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", try, got, w)
		}
	}
	j := Reliability{Jitter: 0.5}.withDefaults()
	for try := 0; try < 6; try++ {
		base := r.backoff(try, rng)
		got := j.backoff(try, rng)
		if got < base || got >= base*1.5 {
			t.Fatalf("jittered backoff(%d) = %v outside [%v, %v)", try, got, base, base*1.5)
		}
	}
}

func TestReliabilityValidation(t *testing.T) {
	sim := NewSimulation(1)
	bus, err := NewBus(sim, Link{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.EnableReliability(Reliability{MaxRetries: -1}); err == nil {
		t.Fatal("negative retries accepted")
	}
	if err := bus.EnableReliability(Reliability{BaseBackoff: 1, MaxBackoff: 0.5}); err == nil {
		t.Fatal("max backoff below base accepted")
	}
	if err := bus.EnableReliability(Reliability{}); err != nil {
		t.Fatalf("default reliability rejected: %v", err)
	}
}

// runBurstSession feeds sessions of stub-classified traffic through a bus
// with the given link and reliability, returning the camera's accepted
// event count.
func runBurstSession(t *testing.T, link Link, rel *Reliability) int {
	t.Helper()
	sim := NewSimulation(11)
	bus, err := NewBus(sim, link)
	if err != nil {
		t.Fatal(err)
	}
	if rel != nil {
		if err := bus.EnableReliability(*rel); err != nil {
			t.Fatal(err)
		}
	}
	cam := &Camera{}
	cam.Attach(bus)
	pen := &Pen{Classifier: stubClassifier{}}
	pen.Attach(bus)
	rng := rand.New(rand.NewSource(11))
	offset := 0.0
	for i := 0; i < 6; i++ {
		readings, err := sensor.OfficeSession(sensor.DefaultStyle()).Run(rng)
		if err != nil {
			t.Fatal(err)
		}
		for k := range readings {
			readings[k].T += offset
		}
		if _, err := pen.Feed(sim, readings); err != nil {
			t.Fatal(err)
		}
		offset = readings[len(readings)-1].T + 2
	}
	sim.Run(offset + 30)
	return cam.Accepted()
}

func TestRetransmitRecoversBurstLoss(t *testing.T) {
	base := Link{Latency: 0.02}
	baseline := runBurstSession(t, base, nil)
	if baseline == 0 {
		t.Fatal("lossless baseline accepted no events")
	}

	lossy := base
	lossy.LossModel = &fault.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.45, LossBad: 1}
	rel := DefaultReliability()
	recovered := runBurstSession(t, lossy, &rel)

	if got, want := float64(recovered), 0.95*float64(baseline); got < want {
		t.Fatalf("accepted %d of %d baseline events (%.1f%%), want >= 95%%",
			recovered, baseline, 100*got/float64(baseline))
	}

	// Without the reliability layer the same channel visibly hurts.
	lossyAgain := base
	lossyAgain.LossModel = &fault.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.45, LossBad: 1}
	unprotected := runBurstSession(t, lossyAgain, nil)
	if unprotected >= recovered {
		t.Fatalf("retransmit did not help: %d unprotected >= %d recovered", unprotected, recovered)
	}
}

func TestCameraFallbackTimeout(t *testing.T) {
	sim := NewSimulation(9)
	bus, err := NewBus(sim, Link{})
	if err != nil {
		t.Fatal(err)
	}
	cam := &Camera{FallbackTimeout: 5}
	cam.Attach(bus)
	// The pen reports writing twice, then falls silent (crash, partition).
	for i, at := range []float64{1, 2} {
		i, at := i, at
		if err := sim.Schedule(at, func() {
			_ = bus.Publish(Event{Source: "pen", Context: sensor.ContextWriting, Seq: i, Sent: at})
		}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(20)

	if got := cam.Fallbacks(); got != 1 {
		t.Fatalf("fallback snapshots = %d, want 1", got)
	}
	snaps := cam.Snapshots()
	if len(snaps) != 1 || !snaps[0].Fallback {
		t.Fatalf("snapshots = %+v, want one fallback", snaps)
	}
	// The shutter fires one timeout after the last accepted event.
	if got := snaps[0].At; got < 7 || got > 7.1 {
		t.Fatalf("fallback at %v, want ~7 (last event at 2 + timeout 5)", got)
	}
	// A live pen keeps re-arming the watchdog: no fallback fires.
	sim2 := NewSimulation(9)
	bus2, err := NewBus(sim2, Link{})
	if err != nil {
		t.Fatal(err)
	}
	live := &Camera{FallbackTimeout: 5}
	live.Attach(bus2)
	for i := 0; i < 10; i++ {
		i := i
		at := float64(i) * 2
		if err := sim2.Schedule(at, func() {
			_ = bus2.Publish(Event{Source: "pen", Context: sensor.ContextWriting, Seq: i, Sent: at})
		}); err != nil {
			t.Fatal(err)
		}
	}
	sim2.Run(21)
	if got := live.Fallbacks(); got != 0 {
		t.Fatalf("live pen triggered %d fallbacks, want 0", got)
	}
}

// epsilonFaultCases enumerates one representative of every sensor fault
// class with a detector tuned to catch it.
func epsilonFaultCases() []struct {
	name  string
	fault fault.SensorFault
} {
	return []struct {
		name  string
		fault fault.SensorFault
	}{
		{"stuck-axis", &fault.StuckAxis{Axis: fault.AxisZ}},
		{"saturation", &fault.Saturation{Gain: 40}},
		// The gap start is deliberately off the 1 s window grid so the
		// discontinuity falls inside a window rather than on a boundary.
		{"dropout", &fault.Dropout{Start: 10.5, Duration: 3}},
		{"spike", &fault.SpikeNoise{Prob: 0.9, Amplitude: 5}},
		{"clock-drift", &fault.ClockDrift{Rate: 0.5}},
	}
}

// runEpsilonPipeline pushes one faulted recording through the whole chain
// (sensor → pen → bus → camera) and returns the recorded event stream plus
// the filtering camera's ignore count.
func runEpsilonPipeline(t *testing.T, p *pipeline, f fault.SensorFault, workers int) ([]Event, int) {
	t.Helper()
	sim := NewSimulation(21)
	bus, err := NewBus(sim, Link{Latency: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{name: "rec"}
	rec.attach(bus)
	cam := &Camera{Name: "cam", UseQuality: true, MinQuality: 0.5}
	cam.Attach(bus)
	pen := &Pen{
		Classifier:      p.clf,
		Measure:         p.measure,
		Degradation:     &feature.DegradationConfig{NominalStep: 0.01},
		PreScoreWorkers: workers,
	}
	pen.Attach(bus)

	rng := rand.New(rand.NewSource(21))
	readings, err := sensor.OfficeSession(sensor.DefaultStyle()).Run(rng)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(21, f)
	readings, err = inj.Apply(readings)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pen.Feed(sim, readings); err != nil {
		t.Fatal(err)
	}
	sim.Run(readings[len(readings)-1].T + 10)
	if pen.DegradedWindows() == 0 {
		t.Fatalf("fault %s: no window flagged degraded", f.Name())
	}
	return rec.events, cam.Ignored()
}

func TestSensorFaultsForceEpsilonEndToEnd(t *testing.T) {
	p := trainPipeline(t, 7)
	for _, tc := range epsilonFaultCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var streams [][]Event
			for _, workers := range []int{1, 4} {
				events, ignored := runEpsilonPipeline(t, p, tc.fault, workers)
				if len(events) == 0 {
					t.Fatal("no events reached the bus")
				}
				epsilon := 0
				for _, ev := range events {
					if !ev.HasQuality {
						epsilon++
					}
				}
				if epsilon == 0 {
					t.Fatalf("fault %s: no ε (quality-free) events published", tc.name)
				}
				if ignored < epsilon {
					t.Fatalf("camera ignored %d events, want >= %d ε events", ignored, epsilon)
				}
				streams = append(streams, events)
			}
			// Determinism contract: the event stream is identical at any
			// worker count.
			if !reflect.DeepEqual(streams[0], streams[1]) {
				t.Fatal("event streams differ between 1 and 4 workers")
			}
		})
	}
}

func TestFaultedStreamIdenticalAcrossWorkerCounts(t *testing.T) {
	p := trainPipeline(t, 13)
	run := func(workers int) []Event {
		sim := NewSimulation(31)
		link := Link{
			Latency:    0.02,
			Jitter:     0.03,
			LossModel:  fault.BurstLoss(0.1),
			FrameFault: &fault.Truncate{Prob: 0.05},
		}
		bus, err := NewBus(sim, link)
		if err != nil {
			t.Fatal(err)
		}
		if err := bus.EnableReliability(DefaultReliability()); err != nil {
			t.Fatal(err)
		}
		rec := &recorder{name: "rec"}
		rec.attach(bus)
		pen := &Pen{
			Classifier:      p.clf,
			Measure:         p.measure,
			Degradation:     &feature.DegradationConfig{},
			PreScoreWorkers: workers,
		}
		pen.Attach(bus)
		rng := rand.New(rand.NewSource(31))
		readings, err := sensor.OfficeSession(sensor.DefaultStyle()).Run(rng)
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.NewInjector(31, &fault.SpikeNoise{Prob: 0.1})
		if readings, err = inj.Apply(readings); err != nil {
			t.Fatal(err)
		}
		if _, err := pen.Feed(sim, readings); err != nil {
			t.Fatal(err)
		}
		sim.Run(readings[len(readings)-1].T + 10)
		return rec.events
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("faulted event streams differ: %d events at 1 worker, %d at 4", len(one), len(four))
	}
}
