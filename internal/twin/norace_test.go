//go:build !race

package twin

const raceEnabled = false
