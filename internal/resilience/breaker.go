package resilience

import (
	"sync"
	"time"
)

// breakerState is the circuit breaker's position.
type breakerState uint8

const (
	// breakerClosed passes traffic and counts consecutive failures.
	breakerClosed breakerState = iota
	// breakerOpen fails requests fast until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen has let exactly one probe through; its outcome
	// decides between closing and re-opening.
	breakerHalfOpen
)

// breaker is a per-endpoint circuit breaker over transport failures.
// Explicit server rejects are not failures — a server answering "overloaded"
// is alive and the protocol is healthy; the breaker exists for the case
// where the endpoint stops answering at all, so that a fleet of callers
// does not pile retries onto a dead or resetting peer.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time
}

// allow reports whether a request may proceed now. In the open state it
// flips to half-open once the cooldown has elapsed and grants a single
// probe; concurrent callers fail fast until the probe resolves.
func (b *breaker) allow(now time.Time) bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		return true
	default: // half-open: the probe is in flight
		return false
	}
}

// success records a completed exchange: any state collapses to closed.
func (b *breaker) success() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.mu.Unlock()
}

// failure records a transport failure and reports whether the breaker
// opened on it. A half-open probe failure re-opens immediately; in the
// closed state the consecutive-failure count must reach the threshold.
func (b *breaker) failure(now time.Time) (opened bool) {
	if b.threshold < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = now
		return true
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			return true
		}
	}
	return false
}
