// Package lib is reached through every kind of root.
package lib

import "net/http"

// Greet is re-exported through a var initializer.
func Greet() string { return "hi" }

// Hello is called by the root API.
func Hello() string { return "hello" }

// Run is called by main.
func Run() int { return ready }

var ready int

func init() { ready = setup() }

// setup is reached from init.
func setup() int { return 1 }

// Box is re-exported as an alias by the root package.
type Box struct{ n int }

// Size is an exported method of an alias type.
func (b *Box) Size() int { return b.size() }

// size is reached from Size.
func (b *Box) size() int { return b.n }

// Name is printed by fmt, which calls String implicitly.
type Name string

// String is called implicitly by the standard library.
func (n Name) String() string { return string(n) }

// Handler serves HTTP; net/http calls ServeHTTP implicitly.
type Handler struct{}

// ServeHTTP is called implicitly by the standard library.
func (Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {}

// Probe is kept for a test of kept behaviour.
//
//lint:ignore unused TestProbe checks Run's setup through it
func Probe() int { return ready }
