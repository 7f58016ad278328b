package awareoffice

import (
	"errors"
	"testing"
)

func TestSimulationRunsInTimeOrder(t *testing.T) {
	sim := NewSimulation(1)
	var order []int
	if err := sim.Schedule(2.0, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	if err := sim.Schedule(1.0, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := sim.Schedule(3.0, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	sim.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if sim.Now() != 10 {
		t.Errorf("Now = %v, want 10", sim.Now())
	}
}

func TestSimulationTieBreakIsFIFO(t *testing.T) {
	sim := NewSimulation(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if err := sim.Schedule(1.0, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time actions reordered: %v", order)
		}
	}
}

func TestSimulationRunUntilBoundary(t *testing.T) {
	sim := NewSimulation(1)
	ran := false
	if err := sim.Schedule(5.0, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	sim.Run(4.9)
	if ran {
		t.Error("action beyond `until` executed")
	}
	if sim.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", sim.Pending())
	}
	sim.Run(5.0) // boundary inclusive
	if !ran {
		t.Error("action at `until` not executed")
	}
}

func TestSimulationNestedScheduling(t *testing.T) {
	sim := NewSimulation(1)
	var events []float64
	if err := sim.Schedule(1, func() {
		events = append(events, sim.Now())
		// Chain another action from within a running one.
		_ = sim.Schedule(sim.Now()+0.5, func() {
			events = append(events, sim.Now())
		})
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(3)
	if len(events) != 2 || events[0] != 1 || events[1] != 1.5 {
		t.Errorf("events = %v", events)
	}
}

func TestSimulationRejectsPast(t *testing.T) {
	sim := NewSimulation(1)
	if err := sim.Schedule(2, func() {}); err != nil {
		t.Fatal(err)
	}
	sim.Run(5)
	if err := sim.Schedule(1, func() {}); !errors.Is(err, ErrPastDeadline) {
		t.Errorf("err = %v, want ErrPastDeadline", err)
	}
	// Scheduling exactly "now" is allowed.
	if err := sim.Schedule(sim.Now(), func() {}); err != nil {
		t.Errorf("scheduling now rejected: %v", err)
	}
}

func TestBusDeliversWithLatency(t *testing.T) {
	sim := NewSimulation(1)
	bus, err := NewBus(sim, Link{Latency: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []float64
	bus.Subscribe("camera", func(ev Event) { arrivals = append(arrivals, sim.Now()) })
	if err := sim.Schedule(1, func() {
		_ = bus.Publish(Event{Source: "pen", Sent: 1})
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(5)
	if len(arrivals) != 1 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 1.25 {
		t.Errorf("arrival at %v, want 1.25", arrivals[0])
	}
}

func TestBusNoSelfDelivery(t *testing.T) {
	sim := NewSimulation(1)
	bus, err := NewBus(sim, Link{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	bus.Subscribe("pen", func(Event) { count++ })
	_ = bus.Publish(Event{Source: "pen"})
	sim.Run(1)
	if count != 0 {
		t.Error("publisher received its own event")
	}
}

func TestBusLossPartition(t *testing.T) {
	sim := NewSimulation(2)
	bus, err := NewBus(sim, Link{})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	bus.Subscribe("camera", func(Event) { got++ })
	if err := bus.SetLink("camera", Link{Loss: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_ = bus.Publish(Event{Source: "pen", Seq: i})
	}
	sim.Run(1)
	if got != 0 {
		t.Errorf("partitioned camera received %d events", got)
	}
	st := bus.Stats()
	if st.Published != 20 || st.Dropped != 20 {
		t.Errorf("stats: published %d dropped %d", st.Published, st.Dropped)
	}
}

func TestBusPartialLossStatistics(t *testing.T) {
	sim := NewSimulation(3)
	bus, err := NewBus(sim, Link{Loss: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	bus.Subscribe("camera", func(Event) { got++ })
	const n = 2000
	for i := 0; i < n; i++ {
		_ = bus.Publish(Event{Source: "pen", Seq: i})
	}
	sim.Run(1)
	if got < n/2-150 || got > n/2+150 {
		t.Errorf("with 50%% loss received %d of %d", got, n)
	}
}

func TestBusDuplication(t *testing.T) {
	sim := NewSimulation(4)
	bus, err := NewBus(sim, Link{Duplicate: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	bus.Subscribe("camera", func(Event) { got++ })
	_ = bus.Publish(Event{Source: "pen"})
	sim.Run(1)
	if got != 2 {
		t.Errorf("duplicate link delivered %d copies, want 2", got)
	}
}

func TestBusJitterBounded(t *testing.T) {
	sim := NewSimulation(5)
	bus, err := NewBus(sim, Link{Latency: 0.1, Jitter: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []float64
	bus.Subscribe("camera", func(Event) { arrivals = append(arrivals, sim.Now()) })
	for i := 0; i < 100; i++ {
		_ = bus.Publish(Event{Source: "pen", Seq: i})
	}
	sim.Run(1)
	for _, at := range arrivals {
		if at < 0.1 || at >= 0.3 {
			t.Fatalf("arrival %v outside [0.1, 0.3)", at)
		}
	}
}

func TestBusFanOut(t *testing.T) {
	sim := NewSimulation(6)
	bus, err := NewBus(sim, Link{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := 0, 0
	bus.Subscribe("camera", func(Event) { a++ })
	bus.Subscribe("door-display", func(Event) { b++ })
	_ = bus.Publish(Event{Source: "pen"})
	sim.Run(1)
	if a != 1 || b != 1 {
		t.Errorf("fan-out delivered %d/%d", a, b)
	}
}

func TestLinkValidation(t *testing.T) {
	sim := NewSimulation(7)
	bad := []Link{
		{Latency: -1},
		{Jitter: -1},
		{Loss: 2},
		{Loss: -0.1},
		{Duplicate: 1.5},
	}
	for i, l := range bad {
		if _, err := NewBus(sim, l); !errors.Is(err, ErrBadLink) {
			t.Errorf("bad link %d accepted: %v", i, err)
		}
	}
	bus, err := NewBus(sim, Link{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.SetLink("x", Link{Loss: 3}); !errors.Is(err, ErrBadLink) {
		t.Errorf("SetLink bad: %v", err)
	}
}

func TestBusDeterministicForSeed(t *testing.T) {
	run := func(seed int64) []float64 {
		sim := NewSimulation(seed)
		bus, err := NewBus(sim, Link{Latency: 0.05, Jitter: 0.1, Loss: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var arrivals []float64
		bus.Subscribe("camera", func(Event) { arrivals = append(arrivals, sim.Now()) })
		for i := 0; i < 50; i++ {
			_ = bus.Publish(Event{Source: "pen", Seq: i})
		}
		sim.Run(1)
		return arrivals
	}
	a := run(99)
	b := run(99)
	if len(a) != len(b) {
		t.Fatal("non-deterministic delivery count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic delivery times")
		}
	}
}
