//go:build race

package core

// raceEnabled reports a race-detector build, whose instrumentation
// changes allocation counts.
const raceEnabled = true
