// Seeded violations for the wallclock analyzer's instrumented scope:
// production code in the root flowdiff package must route clock reads
// through the injectable obs.Clock.
package clockpkg

import "time"

func badNow() time.Time {
	return time.Now() // want "time.Now reads the wall clock directly: instrumented stages must go through the injectable obs.Clock"
}

func badSince(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since reads the wall clock directly"
}

func goodVirtualTime(now time.Duration) time.Duration {
	return now + 3*time.Millisecond
}
