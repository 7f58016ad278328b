package awareoffice

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
)

// Simulation errors.
var (
	// ErrPastDeadline reports scheduling behind the virtual clock.
	ErrPastDeadline = errors.New("awareoffice: scheduling into the past")
	// ErrBadLink reports invalid link parameters.
	ErrBadLink = errors.New("awareoffice: invalid link parameters")
)

// Simulation is a deterministic discrete-event simulator: a virtual clock
// and a time-ordered queue of pending actions.
type Simulation struct {
	now   float64
	queue taskHeap
	seq   int64 // tie-breaker preserving scheduling order at equal times
	rng   *rand.Rand
}

// NewSimulation returns a simulation whose randomness (network effects)
// derives from seed.
func NewSimulation(seed int64) *Simulation {
	return &Simulation{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (s *Simulation) Now() float64 { return s.now }

// Schedule queues fn to run at virtual time `at`. Scheduling strictly in
// the past is rejected; scheduling "now" is allowed and runs after the
// current action completes.
func (s *Simulation) Schedule(at float64, fn func()) error {
	if at < s.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrPastDeadline, at, s.now)
	}
	heap.Push(&s.queue, &task{at: at, seq: s.seq, fn: fn})
	s.seq++
	return nil
}

// Run drains the queue until no action remains at or before `until`,
// advancing the virtual clock. Actions scheduled during the run execute in
// time order.
func (s *Simulation) Run(until float64) {
	for s.queue.Len() > 0 {
		next := s.queue[0]
		if next.at > until {
			break
		}
		heap.Pop(&s.queue)
		s.now = next.at
		next.fn()
	}
	if s.now < until {
		s.now = until
	}
}

// Pending returns the number of queued actions.
//
//lint:ignore unused TestSimulationRunUntilBoundary probes the queue with it
func (s *Simulation) Pending() int { return s.queue.Len() }

// task is one scheduled action.
type task struct {
	at  float64
	seq int64
	fn  func()
}

// taskHeap orders tasks by time, then scheduling order.
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

//lint:ignore unused container/heap calls it through heap.Interface
func (h *taskHeap) Push(x any) { *h = append(*h, x.(*task)) }

//lint:ignore unused container/heap calls it through heap.Interface
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
