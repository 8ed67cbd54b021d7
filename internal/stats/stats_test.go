package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{"empty", nil, Summary{}},
		{"single", []float64{5}, Summary{Count: 1, Mean: 5, Min: 5, Max: 5, Sum: 5}},
		{
			"basic", []float64{2, 4, 4, 4, 5, 5, 7, 9},
			Summary{Count: 8, Mean: 5, StdDev: math.Sqrt(32.0 / 7.0), Min: 2, Max: 9, Sum: 40},
		},
		{"negative", []float64{-3, 0, 3}, Summary{Count: 3, Mean: 0, StdDev: 3, Min: -3, Max: 3, Sum: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Summarize(tt.xs)
			if got.Count != tt.want.Count || !almostEqual(got.Mean, tt.want.Mean, 1e-9) ||
				!almostEqual(got.StdDev, tt.want.StdDev, 1e-9) ||
				got.Min != tt.want.Min || got.Max != tt.want.Max ||
				!almostEqual(got.Sum, tt.want.Sum, 1e-9) {
				t.Errorf("Summarize(%v) = %+v, want %+v", tt.xs, got, tt.want)
			}
		})
	}
}

// summarizeReference is Summarize as it was before it became Welford's
// loop: the statistics of a collected slice, one pass over it.
func summarizeReference(xs []float64) Summary {
	var s Summary
	if len(xs) == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var mean, m2 float64
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		s.Sum += x
	}
	s.Count = len(xs)
	s.Mean = mean
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(m2 / float64(len(xs)-1))
	}
	return s
}

// TestWelfordMatchesSummarize holds the accumulator and Summarize to the
// collected-slice reference bit for bit on all six fields, so a
// signature that folds its samples as it meets them reports exactly
// what summarizing the collected samples did.
func TestWelfordMatchesSummarize(t *testing.T) {
	same := func(a, b Summary) bool {
		return a.Count == b.Count &&
			math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
			math.Float64bits(a.StdDev) == math.Float64bits(b.StdDev) &&
			math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
			math.Float64bits(a.Max) == math.Float64bits(b.Max) &&
			math.Float64bits(a.Sum) == math.Float64bits(b.Sum)
	}
	f := func(xs []float64, small []int16) bool {
		for _, r := range small {
			xs = append(xs, float64(r))
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		want := summarizeReference(xs)
		return same(w.Summary(), want) && same(Summarize(xs), want) &&
			w.Count() == want.Count &&
			math.Float64bits(w.Mean()) == math.Float64bits(want.Mean) &&
			math.Float64bits(w.StdDev()) == math.Float64bits(want.StdDev)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryMergeMatchesConcat(t *testing.T) {
	f := func(a, b []int16) bool {
		xs := make([]float64, len(a))
		for i, r := range a {
			xs[i] = float64(r)
		}
		ys := make([]float64, len(b))
		for i, r := range b {
			ys[i] = float64(r)
		}
		got := Summarize(xs).Merge(Summarize(ys))
		want := Summarize(append(append([]float64(nil), xs...), ys...))
		if got.Count != want.Count {
			return false
		}
		if got.Count == 0 {
			return true
		}
		return almostEqual(got.Mean, want.Mean, 1e-6) &&
			almostEqual(got.StdDev, want.StdDev, 1e-6) &&
			got.Min == want.Min && got.Max == want.Max &&
			almostEqual(got.Sum, want.Sum, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	t.Run("perfect positive", func(t *testing.T) {
		r, err := Pearson([]float64{1, 2, 3, 4}, []float64{2, 4, 6, 8})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(r, 1, 1e-12) {
			t.Errorf("r = %v, want 1", r)
		}
	})
	t.Run("perfect negative", func(t *testing.T) {
		r, err := Pearson([]float64{1, 2, 3}, []float64{3, 2, 1})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(r, -1, 1e-12) {
			t.Errorf("r = %v, want -1", r)
		}
	})
	t.Run("length mismatch", func(t *testing.T) {
		if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
			t.Error("want error on length mismatch")
		}
	})
	t.Run("zero variance", func(t *testing.T) {
		if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
			t.Error("want error on constant series")
		}
	})
	t.Run("too short", func(t *testing.T) {
		if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
			t.Error("want error on single point")
		}
	})
}

func TestPearsonBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		c, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate draw
		}
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	cfg := &quick.Config{Rand: rng, MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPartialCorrelation(t *testing.T) {
	// y = x exactly, z independent: partial correlation should stay ~1.
	rng := rand.New(rand.NewSource(7))
	n := 500
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64()
		y[i] = x[i]
		z[i] = rng.NormFloat64()
	}
	r, err := PartialCorrelation(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.99 {
		t.Errorf("partial correlation of identical series = %v, want ~1", r)
	}

	// x and y both driven by z only: controlling for z should kill the
	// correlation.
	for i := 0; i < n; i++ {
		z[i] = rng.NormFloat64()
		x[i] = 2*z[i] + 0.01*rng.NormFloat64()
		y[i] = -3*z[i] + 0.01*rng.NormFloat64()
	}
	r, err = PartialCorrelation(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.2 {
		t.Errorf("partial correlation with confounder removed = %v, want ~0", r)
	}
}

func TestChiSquare(t *testing.T) {
	t.Run("identical distributions", func(t *testing.T) {
		x2, err := ChiSquare([]float64{10, 20, 30}, []float64{10, 20, 30})
		if err != nil {
			t.Fatal(err)
		}
		if x2 != 0 {
			t.Errorf("X^2 = %v, want 0", x2)
		}
	})
	t.Run("known value", func(t *testing.T) {
		// (12-10)^2/10 + (8-10)^2/10 = 0.8
		x2, err := ChiSquare([]float64{12, 8}, []float64{10, 10})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(x2, 0.8, 1e-12) {
			t.Errorf("X^2 = %v, want 0.8", x2)
		}
	})
	t.Run("zero expected bucket", func(t *testing.T) {
		x2, err := ChiSquare([]float64{5, 10}, []float64{0, 10})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(x2, 5, 1e-12) {
			t.Errorf("X^2 = %v, want 5", x2)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := ChiSquare(nil, nil); err == nil {
			t.Error("want error on empty input")
		}
	})
	t.Run("mismatch", func(t *testing.T) {
		if _, err := ChiSquare([]float64{1}, []float64{1, 2}); err == nil {
			t.Error("want error on length mismatch")
		}
	})
}

func TestChiSquareNonNegative(t *testing.T) {
	f := func(pairsRaw []uint8) bool {
		if len(pairsRaw)%2 == 1 {
			pairsRaw = pairsRaw[:len(pairsRaw)-1]
		}
		if len(pairsRaw) == 0 {
			return true
		}
		n := len(pairsRaw) / 2
		obs := make([]float64, n)
		exp := make([]float64, n)
		for i := 0; i < n; i++ {
			obs[i] = float64(pairsRaw[2*i])
			exp[i] = float64(pairsRaw[2*i+1])
		}
		x2, err := ChiSquare(obs, exp)
		return err == nil && x2 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{1, 50},
		{0.5, 35},
		{0.25, 20},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Percentile(p=%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("want error on empty input")
	}
	if _, err := Percentile(xs, 1.5); err == nil {
		t.Error("want error on out-of-range p")
	}
}
