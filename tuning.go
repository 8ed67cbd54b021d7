package flowdiff

// Every name in this file is a no-op: each signature build runs
// serially, and concurrency lives across tenants and across Compare's
// two captures (DESIGN.md, "Where concurrency lives").

// Tuning is an empty knob-set.
//
// Deprecated: has no effect; kept so flowbench compiles.
type Tuning struct{}

// TuningOption configures nothing.
//
// Deprecated: has no effect; kept so flowbench compiles.
type TuningOption func(*Tuning)

// Workers configures nothing.
//
// Deprecated: has no effect; kept so flowbench compiles.
func Workers(int) TuningOption { return func(*Tuning) {} }

// NewTuning returns the empty Tuning.
//
// Deprecated: has no effect; kept so flowbench compiles.
func NewTuning(...TuningOption) Tuning { return Tuning{} }

// Options returns o.
//
// Deprecated: has no effect; kept so flowbench compiles.
func (Tuning) Options(o Options) Options { return o }

// Columnar returns o.
//
// Deprecated: has no effect; kept so flowbench compiles.
func (Tuning) Columnar(o ColumnarOptions) ColumnarOptions { return o }
