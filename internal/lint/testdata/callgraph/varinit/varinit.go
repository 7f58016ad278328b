// Package varinit re-exports a library function the way the module's root
// package does (var X = pkg.F) and builds a table of func literals at
// package level. Neither sits in a function body, so only the package's
// initializer node gives them edges.
package varinit

import "example.test/varinit/lib"

// Upper is lib.Upper under the root package's name.
var Upper = lib.Upper

// handlers maps names to closures over the library.
var handlers = map[string]func() int{
	"one": func() int { return lib.One() },
}

// Handle runs the named handler.
func Handle(name string) int { return handlers[name]() }
