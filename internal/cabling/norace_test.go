//go:build !race

package cabling_test

const raceEnabled = false
