// Package lib holds functions nothing in the module reaches.
package lib

// Used is re-exported by the root package.
func Used() int { return 1 }

// Dead is exported, but no root reaches it.
func Dead() int { return dead() }

// dead is reached only from Dead.
func dead() int { return 2 }

// T is not re-exported, so its exported methods are no roots.
type T struct{}

// Method is reached from nowhere.
func (T) Method() int { return 3 }

// OnlyTests is called by a test alone, which is no root.
func OnlyTests() int { return 4 }
