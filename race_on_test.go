//go:build race

package flowdiff

const raceEnabled = true
