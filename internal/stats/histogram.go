package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram bins observations into fixed-width buckets starting at Origin.
// FlowDiff uses 20 ms bins for delay distributions (paper §V-B, Fig. 10).
type Histogram struct {
	Origin float64 // left edge of bucket 0
	Width  float64 // bucket width, must be > 0
	Counts []int   // grown on demand
	total  int
}

// NewHistogram creates a histogram with the given origin and bucket width.
func NewHistogram(origin, width float64) (*Histogram, error) {
	if width <= 0 || math.IsNaN(width) || math.IsInf(width, 0) {
		return nil, fmt.Errorf("stats: invalid histogram width %v", width)
	}
	return &Histogram{Origin: origin, Width: width}, nil
}

// Add records one observation. Values below Origin are clamped into
// bucket 0.
func (h *Histogram) Add(x float64) {
	idx := 0
	if x > h.Origin {
		idx = int((x - h.Origin) / h.Width)
	}
	for idx >= len(h.Counts) {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// BucketCenter returns the midpoint value of bucket i.
func (h *Histogram) BucketCenter(i int) float64 {
	return h.Origin + (float64(i)+0.5)*h.Width
}

// Frequencies returns the normalized bucket frequencies (each count divided
// by the total). Empty histogram yields nil.
func (h *Histogram) Frequencies() []float64 {
	if h.total == 0 {
		return nil
	}
	fs := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		fs[i] = float64(c) / float64(h.total)
	}
	return fs
}

// Peak describes a local maximum in a histogram.
type Peak struct {
	Bucket int     // bucket index
	Value  float64 // bucket center
	Frac   float64 // fraction of total observations in the bucket
}

// DominantPeak returns the histogram's highest local maximum, or
// ok=false when the histogram is empty. A bucket is a local maximum when
// its count is >= both neighbours (an edge bucket compares against its
// single neighbour); among equal counts the lowest bucket wins. FlowDiff
// uses the dominant peak of the inter-flow delay distribution as the DD
// signature. One scan, no allocation.
func (h *Histogram) DominantPeak() (Peak, bool) {
	if h.total == 0 {
		return Peak{}, false
	}
	best, bestC := -1, 0
	for i, c := range h.Counts {
		if c <= bestC {
			continue
		}
		leftOK := i == 0 || h.Counts[i-1] <= c
		rightOK := i == len(h.Counts)-1 || h.Counts[i+1] <= c
		if leftOK && rightOK {
			best, bestC = i, c
		}
	}
	if best < 0 {
		return Peak{}, false
	}
	return Peak{Bucket: best, Value: h.BucketCenter(best), Frac: float64(bestC) / float64(h.total)}, true
}

// CDFPoint is one point of an empirical CDF: Fraction of observations <= X.
type CDFPoint struct {
	X        float64
	Fraction float64
}

// CDF computes the empirical cumulative distribution of xs. The result has
// one point per distinct value, in ascending order.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var pts []CDFPoint
	for i := 0; i < len(sorted); {
		j := i
		//lint:ignore floatcmp run-length dedup over one sorted copy: identical samples are bit-identical, no arithmetic happened
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		pts = append(pts, CDFPoint{X: sorted[i], Fraction: float64(j) / n})
		i = j
	}
	return pts
}

// CDFAt evaluates an empirical CDF (as returned by CDF) at x via step
// interpolation.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	idx := sort.Search(len(cdf), func(i int) bool { return cdf[i].X > x })
	if idx == 0 {
		return 0
	}
	return cdf[idx-1].Fraction
}
