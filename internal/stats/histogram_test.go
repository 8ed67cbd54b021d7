package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{5, 15, 25, 45, 45, 45, 100} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d, want 7", h.Total())
	}
	// Buckets: [0,20)=2 [20,40)=1 [40,60)=3 [60,80)=0 [80,100)=0 [100,120)=1
	wantCounts := []int{2, 1, 3, 0, 0, 1}
	if len(h.Counts) != len(wantCounts) {
		t.Fatalf("len(Counts) = %d, want %d", len(h.Counts), len(wantCounts))
	}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("Counts[%d] = %d, want %d", i, h.Counts[i], w)
		}
	}
	peak, ok := h.DominantPeak()
	if !ok {
		t.Fatal("no dominant peak")
	}
	if peak.Bucket != 2 {
		t.Errorf("dominant peak bucket = %d, want 2", peak.Bucket)
	}
	if !almostEqual(peak.Value, 50, 1e-9) {
		t.Errorf("dominant peak center = %v, want 50", peak.Value)
	}
}

func TestHistogramInvalidWidth(t *testing.T) {
	for _, w := range []float64{0, -1} {
		if _, err := NewHistogram(0, w); err == nil {
			t.Errorf("NewHistogram(width=%v) succeeded, want error", w)
		}
	}
}

func TestHistogramBelowOriginClamped(t *testing.T) {
	h, _ := NewHistogram(10, 5)
	h.Add(-100)
	h.Add(3)
	if len(h.Counts) != 1 || h.Counts[0] != 2 {
		t.Errorf("below-origin values not clamped into bucket 0: %v", h.Counts)
	}
}

func TestHistogramFrequenciesSumToOne(t *testing.T) {
	f := func(raw []uint8) bool {
		h, _ := NewHistogram(0, 7)
		for _, r := range raw {
			h.Add(float64(r))
		}
		fs := h.Frequencies()
		if len(raw) == 0 {
			return fs == nil
		}
		var sum float64
		for _, x := range fs {
			sum += x
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// peaksReference returns the local maxima of h whose normalized
// frequency is at least minFrac, ordered by descending frequency, then
// ascending bucket: the sorted peak list DominantPeak's one scan must
// agree with on its first element.
func peaksReference(h *Histogram, minFrac float64) []Peak {
	if h.total == 0 {
		return nil
	}
	var peaks []Peak
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		frac := float64(c) / float64(h.total)
		if frac < minFrac {
			continue
		}
		leftOK := i == 0 || h.Counts[i-1] <= c
		rightOK := i == len(h.Counts)-1 || h.Counts[i+1] <= c
		if leftOK && rightOK {
			peaks = append(peaks, Peak{Bucket: i, Value: h.BucketCenter(i), Frac: frac})
		}
	}
	sort.Slice(peaks, func(a, b int) bool {
		//lint:ignore floatcmp comparator tie-break: both fracs derive from the same counts, so exact bit equality is the correct tie test
		if peaks[a].Frac != peaks[b].Frac {
			return peaks[a].Frac > peaks[b].Frac
		}
		return peaks[a].Bucket < peaks[b].Bucket
	})
	return peaks
}

// TestDominantPeakMatchesReference holds the one-scan DominantPeak to
// the head of the sorted peak list on random histograms (ok false
// exactly when the histogram is empty) and requires it to allocate
// nothing.
func TestDominantPeakMatchesReference(t *testing.T) {
	f := func(raw []uint8, width uint8) bool {
		h, _ := NewHistogram(0, float64(width%16)+1)
		for _, r := range raw {
			// Fold values into few buckets so ties and plateaus occur.
			h.Add(float64(r % 64))
		}
		got, ok := h.DominantPeak()
		ref := peaksReference(h, 0)
		if len(ref) == 0 {
			return !ok && got == Peak{} && len(raw) == 0
		}
		return ok && got == ref[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	h, _ := NewHistogram(0, 20)
	for _, x := range []float64{5, 15, 25, 45, 45, 45, 100, 110} {
		h.Add(x)
	}
	if n := testing.AllocsPerRun(100, func() { h.DominantPeak() }); n != 0 {
		t.Errorf("DominantPeak allocates %v times per call, want 0", n)
	}
}

func TestPeaksOrderedAndLocalMaxima(t *testing.T) {
	h, _ := NewHistogram(0, 10)
	// Two modes: around 15 (3 obs) and around 55 (5 obs).
	for _, x := range []float64{12, 14, 16, 52, 53, 54, 55, 56, 31} {
		h.Add(x)
	}
	peaks := peaksReference(h, 0.1)
	if len(peaks) < 2 {
		t.Fatalf("got %d peaks, want >= 2", len(peaks))
	}
	if peaks[0].Bucket != 5 {
		t.Errorf("top peak bucket = %d, want 5", peaks[0].Bucket)
	}
	if peaks[1].Bucket != 1 {
		t.Errorf("second peak bucket = %d, want 1", peaks[1].Bucket)
	}
	for i := 1; i < len(peaks); i++ {
		if peaks[i].Frac > peaks[i-1].Frac {
			t.Error("peaks not sorted by descending frequency")
		}
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2, 2})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i].X != want[i].X || !almostEqual(pts[i].Fraction, want[i].Fraction, 1e-12) {
			t.Errorf("point %d = %+v, want %+v", i, pts[i], want[i])
		}
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) should be nil")
	}
}

func TestCDFAt(t *testing.T) {
	cdf := CDF([]float64{10, 20, 30})
	tests := []struct {
		x    float64
		want float64
	}{
		{5, 0},
		{10, 1.0 / 3},
		{15, 1.0 / 3},
		{30, 1},
		{99, 1},
	}
	for _, tt := range tests {
		if got := CDFAt(cdf, tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("CDFAt(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDFProperties(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		pts := CDF(xs)
		if len(xs) == 0 {
			return pts == nil
		}
		// Monotone nondecreasing in both X and Fraction; last fraction is 1.
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].Fraction < pts[i-1].Fraction {
				return false
			}
		}
		return almostEqual(pts[len(pts)-1].Fraction, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSamplersDeterministic(t *testing.T) {
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if Poisson(a, 5) != Poisson(b, 5) {
			t.Fatal("Poisson not deterministic for equal seeds")
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mean := range []float64{0.5, 3, 12, 80} {
		var w Welford
		for i := 0; i < 20000; i++ {
			w.Add(float64(Poisson(rng, mean)))
		}
		if !almostEqual(w.Mean(), mean, mean*0.05+0.1) {
			t.Errorf("Poisson(mean=%v) empirical mean = %v", mean, w.Mean())
		}
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -3) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestLogNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mean := 100e6 // 100ms in ns
	std := 30e6
	var w Welford
	for i := 0; i < 50000; i++ {
		w.Add(float64(LogNormal(rng, 100_000_000, 30_000_000)))
	}
	if !almostEqual(w.Mean(), mean, mean*0.03) {
		t.Errorf("LogNormal mean = %v, want ~%v", w.Mean(), mean)
	}
	if !almostEqual(w.StdDev(), std, std*0.10) {
		t.Errorf("LogNormal stddev = %v, want ~%v", w.StdDev(), std)
	}
}

func TestOnOffSourceAlternates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := NewOnOffSource(rng, 100, 30, 100, 30)
	_, on := src.Next()
	if !on {
		t.Fatal("first period should be ON")
	}
	for i := 0; i < 10; i++ {
		_, next := src.Next()
		if next == on {
			t.Fatal("ON/OFF source failed to alternate")
		}
		on = next
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(ms uint16) bool {
		d := time.Duration(ms) * time.Millisecond
		j := Jitter(rng, d, 0.2)
		lo := float64(d) * 0.8
		hi := float64(d) * 1.2
		return float64(j) >= lo-1 && float64(j) <= hi+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
