//go:build !race

package eval

// raceEnabled reports that the race detector is on.
const raceEnabled = false
