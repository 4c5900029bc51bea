//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation slows the
// broker too much for the small runs to offer their load.
const raceEnabled = true
