// Command user is the fixture tree's non-test user of lib.
package main

import "unusedexport/internal/lib"

func main() {
	lib.Used()
	lib.Live{}.Call()
	var s lib.Shape = lib.Square{Side: 2}
	_ = s.Area()
}
