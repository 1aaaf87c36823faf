//go:build race

package topology

// raceEnabled reports a race-detector build, whose instrumentation
// changes allocation counts.
const raceEnabled = true
