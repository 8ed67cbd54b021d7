package flowdiff

import (
	"reflect"
	"testing"
	"time"
)

// TestZeroTuningChangesNothing pins the shims' contract: applying a
// Tuning, the zero one or one built with Workers, hands the options
// back unchanged.
func TestZeroTuningChangesNothing(t *testing.T) {
	var o Options
	o.Signature.OccurrenceGap = 2 * time.Second
	o.Stability.Intervals = 7
	co := ColumnarOptions{Filter: ReadFilter{From: time.Second, To: time.Minute}}
	for _, tun := range []Tuning{{}, NewTuning(Workers(3))} {
		if got := tun.Options(o); !reflect.DeepEqual(got, o) {
			t.Errorf("Tuning rewrote Options: %+v", got)
		}
		if got := tun.Columnar(co); !reflect.DeepEqual(got, co) {
			t.Errorf("Tuning rewrote ColumnarOptions: %+v", got)
		}
	}
}
