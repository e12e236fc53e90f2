// Package attackgen is the fixture tree's attack generator.
package attackgen

// Run attacks.
func Run() {}
