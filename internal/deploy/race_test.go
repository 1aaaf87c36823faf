//go:build race

package deploy

// raceEnabled reports a race-detector build, whose instrumentation
// changes allocation counts.
const raceEnabled = true
