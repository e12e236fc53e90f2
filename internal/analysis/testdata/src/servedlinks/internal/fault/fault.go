// Package fault is the attack model the servers inject: allowed.
package fault

// Inject injects a bug.
func Inject() {}
