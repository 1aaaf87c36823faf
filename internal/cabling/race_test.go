//go:build race

package cabling_test

// raceEnabled reports a race-detector build, whose instrumentation
// changes allocation counts.
const raceEnabled = true
