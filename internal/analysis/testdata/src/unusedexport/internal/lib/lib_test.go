package lib

import "testing"

// A test file's references do not count: the loader leaves test files
// out, as `go list` leaves them out of GoFiles.
func TestUses(t *testing.T) {
	TestOnly()
	_ = Dead{}
	Live{}.Spare()
	unexported()
}
