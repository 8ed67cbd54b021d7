// Package stats provides the statistical primitives FlowDiff's signature
// pipeline is built on: descriptive statistics, histograms and CDFs, peak
// detection in empirical distributions, Pearson and partial correlation,
// the chi-square fitness test, and seeded random samplers for workload
// generation (Poisson, exponential, lognormal, ON/OFF).
//
// Everything in this package is deterministic given its inputs; samplers
// take an explicit *rand.Rand so simulations are reproducible.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a computation needs more samples
// than were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Summary holds descriptive statistics of a sample.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes descriptive statistics over xs: Welford's
// single-pass fold, one Add per sample in order. A zero-length input
// yields a zero Summary.
func Summarize(xs []float64) Summary {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Summary()
}

// Merge combines two summaries into the summary Summarize would have
// produced over the concatenated samples (parallel Welford merge on the
// second moments recovered from the standard deviations).
func (s Summary) Merge(o Summary) Summary {
	if o.Count == 0 {
		return s
	}
	if s.Count == 0 {
		return o
	}
	n := s.Count + o.Count
	delta := o.Mean - s.Mean
	m2 := s.m2() + o.m2() + delta*delta*float64(s.Count)*float64(o.Count)/float64(n)
	out := Summary{
		Count: n,
		Mean:  s.Mean + delta*float64(o.Count)/float64(n),
		Min:   math.Min(s.Min, o.Min),
		Max:   math.Max(s.Max, o.Max),
		Sum:   s.Sum + o.Sum,
	}
	if n > 1 {
		out.StdDev = math.Sqrt(m2 / float64(n-1))
	}
	return out
}

// m2 recovers the sum of squared deviations from the sample stddev.
func (s Summary) m2() float64 {
	if s.Count < 2 {
		return 0
	}
	return s.StdDev * s.StdDev * float64(s.Count-1)
}

// Welford accumulates what Summarize reports — count, running mean and
// standard deviation, minimum, maximum and sum — without retaining
// samples. Adding samples one at a time yields, bit for bit, the
// Summary of the slice holding them in that order. The zero value is
// ready to use.
type Welford struct {
	n             int
	mean, m2      float64
	min, max, sum float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = math.Inf(1), math.Inf(-1)
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
	if x < w.min {
		w.min = x
	}
	if x > w.max {
		w.max = x
	}
	w.sum += x
}

// Count returns the number of observations added.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean (0 if no observations).
func (w *Welford) Mean() float64 { return w.mean }

// StdDev returns the sample standard deviation (0 for fewer than two
// observations).
func (w *Welford) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// Summary returns the statistics of the observations added so far (a
// zero Summary if none).
func (w *Welford) Summary() Summary {
	if w.n == 0 {
		return Summary{}
	}
	return Summary{Count: w.n, Mean: w.mean, StdDev: w.StdDev(), Min: w.min, Max: w.max, Sum: w.sum}
}

// Pearson computes the Pearson product-moment correlation coefficient
// between two equal-length series. It returns an error when the series
// differ in length, are shorter than two points, or either has zero
// variance (correlation undefined).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if NearZero(vx) || NearZero(vy) {
		return 0, fmt.Errorf("stats: zero variance in series: %w", ErrInsufficientData)
	}
	return cov / math.Sqrt(vx*vy), nil
}

// PartialCorrelation computes the first-order partial correlation between
// series x and y controlling for series z:
//
//	r(xy.z) = (r_xy - r_xz*r_yz) / sqrt((1-r_xz^2)(1-r_yz^2))
//
// FlowDiff uses this to quantify the dependency strength between adjacent
// edges in a connectivity graph while controlling for shared upstream load.
func PartialCorrelation(x, y, z []float64) (float64, error) {
	rxy, err := Pearson(x, y)
	if err != nil {
		return 0, fmt.Errorf("stats: partial correlation r_xy: %w", err)
	}
	rxz, err := Pearson(x, z)
	if err != nil {
		return 0, fmt.Errorf("stats: partial correlation r_xz: %w", err)
	}
	ryz, err := Pearson(y, z)
	if err != nil {
		return 0, fmt.Errorf("stats: partial correlation r_yz: %w", err)
	}
	den := math.Sqrt((1 - rxz*rxz) * (1 - ryz*ryz))
	if NearZero(den) {
		return 0, fmt.Errorf("stats: degenerate control series: %w", ErrInsufficientData)
	}
	return (rxy - rxz*ryz) / den, nil
}

// ChiSquare computes the chi-square fitness statistic between observed and
// expected count distributions:
//
//	X^2 = sum_i (O_i - E_i)^2 / E_i
//
// Buckets whose expected value is zero contribute O_i (treating E as an
// epsilon-smoothed baseline) so that a newly appeared bucket still
// registers as a deviation rather than a division by zero.
func ChiSquare(observed, expected []float64) (float64, error) {
	if len(observed) != len(expected) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(observed), len(expected))
	}
	if len(observed) == 0 {
		return 0, ErrInsufficientData
	}
	var x2 float64
	for i := range observed {
		o, e := observed[i], expected[i]
		if e <= 0 {
			x2 += o
			continue
		}
		d := o - e
		x2 += d * d / e
	}
	return x2, nil
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrInsufficientData
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,1]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
