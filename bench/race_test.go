//go:build race

package main

// raceEnabled reports a race-detector build, where the smoke run's time
// limit does not apply.
const raceEnabled = true
