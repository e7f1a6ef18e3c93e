//go:build race

package campaign

// raceEnabled is set under the race detector, whose sync.Pool drops
// pooled items at random, so allocation counts there are not exact.
const raceEnabled = true
