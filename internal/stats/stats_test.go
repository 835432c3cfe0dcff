package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %f, %f", s.Q1, s.Q3)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-9 {
		t.Errorf("stddev = %f", s.StdDev)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Error("empty summary not zero")
	}
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.StdDev != 0 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("input mutated")
	}
}

func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Bound magnitudes so the mean cannot overflow — the
			// invariant under test is ordering, not float saturation.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median &&
			s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := Quantile(sorted, 0.5); q != 5 {
		t.Errorf("interpolated median = %f", q)
	}
	if Quantile(sorted, 0) != 0 || Quantile(sorted, 1) != 10 {
		t.Error("extreme quantiles wrong")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not zero")
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// n = 1: every quantile is the single sample.
	one := []float64{42}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := Quantile(one, q); got != 42 {
			t.Errorf("Quantile([42], %v) = %v", q, got)
		}
	}
	// Duplicate values: interpolation between equal order statistics
	// must stay exactly on the duplicated value.
	dup := []float64{1, 5, 5, 5, 9}
	if got := Quantile(dup, 0.5); got != 5 {
		t.Errorf("median of duplicates = %v, want 5", got)
	}
	if got := Quantile(dup, 0.375); got != 5 {
		t.Errorf("Quantile(dup, 0.375) = %v, want 5", got)
	}
	// p = 0 and p = 1 pin to the extremes, including out-of-range p.
	xs := []float64{2, 4, 6, 8}
	if Quantile(xs, 0) != 2 || Quantile(xs, -0.5) != 2 {
		t.Error("p ≤ 0 must return the minimum")
	}
	if Quantile(xs, 1) != 8 || Quantile(xs, 1.5) != 8 {
		t.Error("p ≥ 1 must return the maximum")
	}
	// Exact order-statistic hit (no interpolation): 0.25 over 5
	// elements lands on index 1 exactly.
	five := []float64{10, 20, 30, 40, 50}
	if got := Quantile(five, 0.25); got != 20 {
		t.Errorf("Quantile(five, 0.25) = %v, want 20", got)
	}
}

func TestMedianInt64(t *testing.T) {
	if m := MedianInt64([]int64{5, 1, 9}); m != 5 {
		t.Errorf("median = %d", m)
	}
	// Even length: lower-middle, per skelly's convention.
	if m := MedianInt64([]int64{4, 1, 3, 2}); m != 2 {
		t.Errorf("even median = %d", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty median did not panic")
		}
	}()
	MedianInt64(nil)
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []int64{3, 1, 2}
	MedianInt64(xs)
	if xs[0] != 3 {
		t.Error("MedianInt64 mutated its input")
	}
}

func TestHistogramCoversAllSamples(t *testing.T) {
	f := func(raw []int16, w uint8) bool {
		xs := make([]int64, len(raw))
		for i, x := range raw {
			xs[i] = int64(x)
		}
		if len(xs) == 0 {
			return true
		}
		bins := HistogramInts(xs, int64(w)+1)
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramIntsBins(t *testing.T) {
	bins := HistogramInts([]int64{1, 2, 3, 10}, 2)
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 4 {
		t.Errorf("histogram lost samples: %d", total)
	}
	if bins[0].Count != 2 { // 1, 2 in [1,3)
		t.Errorf("first bin = %d", bins[0].Count)
	}
}

func TestHistogramEmptyAndDegenerate(t *testing.T) {
	if HistogramInts(nil, 5) != nil {
		t.Error("empty histogram not nil")
	}
	bins := HistogramInts([]int64{4, 4, 4}, 3)
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 3 {
		t.Error("degenerate histogram lost samples")
	}
}

func TestKDEBimodal(t *testing.T) {
	// Two tight clusters: the KDE must peak near both and dip between.
	var xs []float64
	for i := 0; i < 200; i++ {
		xs = append(xs, 35+float64(i%5)-2)
		xs = append(xs, 224+float64(i%5)-2)
	}
	pts := KDE(xs, 4, 200)
	if len(pts) != 200 {
		t.Fatalf("points = %d", len(pts))
	}
	densityAt := func(x float64) float64 {
		best, bd := math.MaxFloat64, 0.0
		for _, p := range pts {
			if d := math.Abs(p.X - x); d < best {
				best, bd = d, p.Density
			}
		}
		return bd
	}
	if densityAt(35) < 4*densityAt(130) || densityAt(224) < 4*densityAt(130) {
		t.Error("KDE not bimodal for hit/miss clusters")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	xs := []float64{10, 12, 15, 30, 31}
	pts := KDE(xs, 2, 400)
	var integral float64
	for i := 1; i < len(pts); i++ {
		integral += (pts[i].Density + pts[i-1].Density) / 2 * (pts[i].X - pts[i-1].X)
	}
	if math.Abs(integral-1) > 0.05 {
		t.Errorf("KDE integral = %f", integral)
	}
}

func TestKDESilvermanFallback(t *testing.T) {
	pts := KDE([]float64{5, 5, 5}, 0, 50) // zero variance → fallback bandwidth
	if len(pts) != 50 {
		t.Fatal("no points")
	}
	if KDE(nil, 1, 10) != nil {
		t.Error("empty KDE not nil")
	}
}

func TestRenderers(t *testing.T) {
	bins := HistogramInts([]int64{1, 2, 2, 3}, 1)
	if out := RenderHistogram(bins, 20); len(out) == 0 {
		t.Error("empty histogram render")
	}
	if out := RenderHistogram(nil, 20); out != "(no data)\n" {
		t.Errorf("nil render = %q", out)
	}
	pts := KDE([]float64{1, 2, 3}, 1, 10)
	if out := RenderKDE(pts, 20); len(out) == 0 {
		t.Error("empty KDE render")
	}
	if out := RenderKDE(nil, 20); out != "(no data)\n" {
		t.Errorf("nil KDE render = %q", out)
	}
}

func TestSummarizeIntsMatchesFloat(t *testing.T) {
	xs := []int64{9, 1, 4, 4, 7}
	fi := SummarizeInts(xs)
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	ff := Summarize(fs)
	if fi != ff {
		t.Errorf("int/float summaries differ: %+v vs %+v", fi, ff)
	}
	// Keep sort import honest (documented lower-middle convention).
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if MedianInt64(xs) != sorted[(len(sorted)-1)/2] {
		t.Error("median convention drifted")
	}
}
