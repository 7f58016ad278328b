// Package unused is the fixture module's root package: its exported API
// is a root of the unused walk.
package unused

import "example.test/unused/lib"

// Used re-exports the one library function a caller can reach.
var Used = lib.Used
