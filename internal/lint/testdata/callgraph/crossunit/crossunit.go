// Package crossunit has a method whose signature names a type of its own
// package; its external test unit calls it through an interface.
package crossunit

// Decision is passed by value.
type Decision struct{ At float64 }

// Sink counts decisions.
type Sink struct{ n int }

// Decide counts one decision.
func (s *Sink) Decide(d Decision) { s.n++ }
