// Package battery is imported only by tests, and says so: not flagged.
//
//lint:allow unusedexport fixture: a test battery only tests import
package battery

// Run would be flagged without the package directive.
func Run() {}
