package flowdiff

// Tuning is the performance knob-set shared by the flowdiff entry
// points: one struct a caller (or a service config file) sets once and
// applies to the modeling options and the columnar read options:
//
//	t := flowdiff.NewTuning(flowdiff.Workers(4))
//	sigs, err := flowdiff.BuildSignatures(ctx, log, t.Options(opts))
//	src, err := flowdiff.NewColumnarSourceOptions(ctx, r, t.Columnar(co))
//
// The width follows the parallel.Clamp contract: zero (or negative)
// means one worker per CPU, requests above GOMAXPROCS are clamped down
// to it, and 1 forces fully sequential execution. Output is identical
// at every setting — parallelism is a throughput knob, never a
// semantics knob.
//
// The zero Tuning is valid and changes nothing: applying it leaves the
// target's own knobs untouched, so existing configurations keep
// working unmodified.
type Tuning struct {
	// Workers bounds every pool: sharded occurrence extraction,
	// per-group signature builds, stability intervals, the two halves of
	// Compare, and the columnar segment-decode readahead.
	Workers int
}

// A TuningOption configures one Tuning knob.
type TuningOption func(*Tuning)

// Workers bounds every pool (see Tuning.Workers).
func Workers(n int) TuningOption {
	return func(t *Tuning) { t.Workers = n }
}

// NewTuning builds a Tuning from functional options.
func NewTuning(opts ...TuningOption) Tuning {
	var t Tuning
	for _, o := range opts {
		o(&t)
	}
	return t
}

// Options returns o with every modeling pool bounded by t.Workers
// (zero leaves o untouched).
func (t Tuning) Options(o Options) Options {
	if t.Workers != 0 {
		o = o.WithWorkers(t.Workers)
	}
	return o
}

// Columnar returns o with the segment-decode readahead bounded by
// t.Workers (zero leaves o untouched).
func (t Tuning) Columnar(o ColumnarOptions) ColumnarOptions {
	if t.Workers != 0 {
		o.Parallelism = t.Workers
	}
	return o
}
