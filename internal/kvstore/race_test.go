//go:build race

package kvstore

// raceEnabled reports that the race detector is on; it allocates on its
// own account, so allocation pins do not hold under it.
const raceEnabled = true
