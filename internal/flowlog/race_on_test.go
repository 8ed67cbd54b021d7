//go:build race

package flowlog

const raceEnabled = true
