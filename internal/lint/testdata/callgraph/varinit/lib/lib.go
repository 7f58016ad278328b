// Package lib is the library the fixture's root package re-exports.
package lib

import "strings"

// Upper upper-cases s.
func Upper(s string) string { return strings.ToUpper(s) }

// One returns 1.
func One() int { return 1 }
