package metrics

import (
	"math"
	"testing"
)

// TestQuantileEmptyHistogram covers the no-sample and nil cases: both
// must report 0, never NaN.
func TestQuantileEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("uwm_empty_cycles", "", []float64{10, 20})
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram Quantile = %v, want 0", got)
	}
}

// TestQuantileNoBounds covers the degenerate single-open-bucket layout:
// every sample lands in the +Inf bucket and there is no bound to clamp
// to, so Quantile must fall back to the observed minimum instead of
// indexing bounds[-1].
func TestQuantileNoBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("uwm_unbounded_cycles", "", nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("no-bounds empty Quantile = %v, want 0", got)
	}
	h.Observe(37)
	h.Observe(99)
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("no-bounds Quantile(%v) = %v, want finite", q, got)
		}
		if got != 37 {
			t.Errorf("no-bounds Quantile(%v) = %v, want the observed minimum 37", q, got)
		}
	}
}

// TestQuantileOpenTopBucket puts all mass above every bound: the
// estimate must clamp to the top bound, not report +Inf.
func TestQuantileOpenTopBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("uwm_top_cycles", "", []float64{10, 20, 40})
	for i := 0; i < 8; i++ {
		h.Observe(1000)
	}
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		got := h.Quantile(q)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("open-bucket Quantile(%v) = %v, want finite", q, got)
		}
		if got != 40 {
			t.Errorf("open-bucket Quantile(%v) = %v, want clamp to 40", q, got)
		}
	}
}

// TestQuantileExtremes pins q=0 and q=1 to the edges of the populated
// range, and clamps out-of-range and NaN q instead of propagating them.
func TestQuantileExtremes(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("uwm_edge_cycles", "", []float64{10, 20, 40, 80})
	for _, x := range []float64{12, 15, 18, 35, 70} {
		h.Observe(x)
	}

	// q=0 sits at the lower edge of the first populated bucket — here
	// (10, 20], so 10.
	if got := h.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v, want 10", got)
	}
	if got := h.Quantile(1); got != 80 {
		t.Errorf("Quantile(1) = %v, want 80", got)
	}
	if got, want := h.Quantile(-3), h.Quantile(0); got != want {
		t.Errorf("Quantile(-3) = %v, want clamp to Quantile(0) = %v", got, want)
	}
	if got, want := h.Quantile(7), h.Quantile(1); got != want {
		t.Errorf("Quantile(7) = %v, want clamp to Quantile(1) = %v", got, want)
	}
	got := h.Quantile(math.NaN())
	if math.IsNaN(got) {
		t.Fatal("Quantile(NaN) propagated NaN")
	}
	if want := h.Quantile(0); got != want {
		t.Errorf("Quantile(NaN) = %v, want clamp to Quantile(0) = %v", got, want)
	}

	// Monotone in q across the populated range.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%v gives %v after %v", q, v, prev)
		}
		prev = v
	}
}

// TestJobSecondsBucketsIsFresh: every caller gets its own copy, so no
// histogram can shift another's bucket edges.
func TestJobSecondsBucketsIsFresh(t *testing.T) {
	a := JobSecondsBuckets()
	if len(a) != 16 || a[0] != 0.001 || a[len(a)-1] != 120 {
		t.Fatalf("JobSecondsBuckets = %v, want 16 edges from 1ms to 120s", a)
	}
	a[0] = 99
	if b := JobSecondsBuckets(); b[0] != 0.001 {
		t.Fatalf("mutating one copy changed the next: %v", b)
	}
}
