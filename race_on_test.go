//go:build race

package cmabhs

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
