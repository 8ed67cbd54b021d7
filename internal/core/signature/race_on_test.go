//go:build race

package signature

const raceEnabled = true
