//go:build !race

package flowlog

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so allocation ceilings that count on recycling are off.
const raceEnabled = false
