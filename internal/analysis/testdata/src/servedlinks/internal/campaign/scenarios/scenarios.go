// Package scenarios lies under the forbidden campaign subtree.
package scenarios

// All lists the scenarios.
func All() []string { return nil }
