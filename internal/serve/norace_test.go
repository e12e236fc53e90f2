//go:build !race

package serve

// raceEnabled reports that the race detector is on; it allocates on its
// own account, and sync.Pool drops some of what it is given, so
// allocation pins do not hold under it.
const raceEnabled = false
