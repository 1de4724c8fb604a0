//go:build !race

package repro

// raceEnabled reports that the race detector is on.
const raceEnabled = false
