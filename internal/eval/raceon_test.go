//go:build race

package eval

// raceEnabled reports that the race detector is on. It makes sync.Pool drop
// released items at random, so allocation counts do not measure the code.
const raceEnabled = true
