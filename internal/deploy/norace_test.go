//go:build !race

package deploy

const raceEnabled = false
