package flowdiff

import "testing"

// TestTuningMapsOntoEveryKnob pins the one-struct contract: a single
// Tuning value reaches both parallelism knobs it fronts — the modeling
// pool and the columnar decode readahead.
func TestTuningMapsOntoEveryKnob(t *testing.T) {
	tun := NewTuning(Workers(3))
	if tun.Workers != 3 {
		t.Fatalf("NewTuning(Workers(3)) = %+v", tun)
	}

	o := tun.Options(Options{})
	if o.Parallelism != 3 || o.Signature.Parallelism != 3 {
		t.Errorf("Options mapping: Parallelism=%d Signature.Parallelism=%d, want 3/3", o.Parallelism, o.Signature.Parallelism)
	}

	co := tun.Columnar(ColumnarOptions{})
	if co.Parallelism != 3 {
		t.Errorf("Columnar mapping: Parallelism=%d, want 3", co.Parallelism)
	}
}

// TestZeroTuningChangesNothing pins backward compatibility: applying
// the zero Tuning leaves existing per-subsystem settings untouched.
func TestZeroTuningChangesNothing(t *testing.T) {
	var tun Tuning
	o := Options{Parallelism: 5}
	if got := tun.Options(o); got.Parallelism != 5 {
		t.Errorf("zero Tuning rewrote Options: %+v", got)
	}
	co := ColumnarOptions{Parallelism: 7}
	if got := tun.Columnar(co); got.Parallelism != 7 {
		t.Errorf("zero Tuning rewrote ColumnarOptions: %+v", got)
	}
}
