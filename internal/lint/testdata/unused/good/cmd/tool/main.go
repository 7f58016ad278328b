// Command tool is a main: a root of the unused walk.
package main

import (
	"fmt"

	"example.test/good/lib"
)

func main() { fmt.Println(lib.Run()) }
