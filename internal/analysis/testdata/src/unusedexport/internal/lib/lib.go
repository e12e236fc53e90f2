// Package lib exercises the unusedexport analyzer.
package lib

// Used is called by the user command: not flagged.
func Used() {}

// TestOnly is called only from a test file.
func TestOnly() {} // want `exported func TestOnly has no non-test reference in the module`

// Dead is named only by a test file.
type Dead struct{} // want `exported type Dead has no non-test reference in the module`

// Live is used by the user command.
type Live struct{}

// Call is called by the user command: not flagged.
func (Live) Call() {}

// Spare is called only from a test file.
func (Live) Spare() {} // want `exported method Live.Spare has no non-test reference in the module`

// Shape is called through by the user command.
type Shape interface{ Area() int }

// Square satisfies Shape.
type Square struct{ Side int }

// Area is reached only through Shape: not flagged.
func (s Square) Area() int { return s.Side * s.Side }

// Reexported is aliased by the tree's public package.
type Reexported struct{}

// Method is API of the public package's alias: not flagged.
func (Reexported) Method() {}

// Kept has no user but states why it stays: not flagged.
//
//lint:unusedexport fixture: a declaration kept on purpose
func Kept() {}

// unexported identifiers are out of scope: not flagged.
func unexported() {}
