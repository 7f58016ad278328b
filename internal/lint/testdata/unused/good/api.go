// Package good is the fixture module's root package. Every function in
// the module is reached from one of the unused walk's roots.
package good

import "example.test/good/lib"

// Box is a re-exported library type: its exported methods are API.
type Box = lib.Box

// Greet re-exports a library function through a package initializer.
var Greet = lib.Greet

// Hello is root API.
func Hello() string { return lib.Hello() + suffix() }

// suffix is reached from Hello.
func suffix() string { return "!" }
