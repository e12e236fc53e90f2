// Package bare exercises unusedexport directives with missing reasons:
// a bare allow and a bare suppression are findings, and neither takes
// effect.
//
//lint:allow unusedexport
package bare

// Orphan would be exempt if either directive carried a reason; as
// written, both directives are findings and Orphan is flagged.
//
//lint:unusedexport
func Orphan() {}
