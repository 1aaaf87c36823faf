//go:build race

package experiments

// raceEnabled reports a race-detector build, whose instrumentation
// changes allocation counts.
const raceEnabled = true
