package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with atomically updated
// counts, built for high-rate observation of simulated latencies and
// window lengths. Bucket layout is fixed at registration; quantiles
// are estimated by linear interpolation inside the covering bucket.
// The nil Histogram is a valid, disabled instrument.
type Histogram struct {
	bounds    []float64       // ascending upper bounds; an implicit +Inf bucket follows
	counts    []atomic.Uint64 // len(bounds)+1
	count     atomic.Uint64
	sum       atomic.Uint64 // float64 bits, CAS-updated
	min       atomic.Int64  // observed minimum, for the underflow-bucket lower edge
	hasMin    atomic.Bool
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1; newest exemplar per bucket
}

// Exemplar links one observed sample to an identity — typically a
// trace id — so a histogram bucket points at a retrievable recording
// instead of an anonymous count. Exposition renders it as an
// OpenMetrics exemplar suffix on the bucket line.
type Exemplar struct {
	Labels []Label
	Value  float64
}

// DefaultLatencyBuckets covers the simulator's timing range: L1 hits
// (~35 cycles with rdtscp overhead) through DRAM misses (~224) up to
// contended multi-miss reads.
func DefaultLatencyBuckets() []float64 {
	return []float64{16, 32, 48, 64, 96, 128, 160, 192, 224, 256, 320, 448, 640, 1024}
}

// DefaultWindowBuckets covers speculative-window lengths, which range
// from collapsed (0) through the TSX base window (~160) and jittered
// DRAM-resolution windows.
func DefaultWindowBuckets() []float64 {
	return []float64{0, 20, 40, 80, 120, 160, 200, 260, 340, 500, 800}
}

// JobSecondsBuckets covers job latency in seconds, from sub-millisecond
// gate evaluations up to minute-scale SHA-1 hashes. The engine's job
// latency histogram, the flight recorder's tail estimate and the
// gateway's hedge delay all bucket on it.
func JobSecondsBuckets() []float64 {
	return []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
	}
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{
		bounds:    bs,
		counts:    make([]atomic.Uint64, len(bs)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
	return h
}

// NewHistogram returns a standalone histogram that is not attached to
// any registry — for internal estimators (e.g. the flight recorder's
// per-type latency quantiles) that want bucketed quantile math without
// appearing in an exposition. Bounds are upper bucket edges; an
// implicit +Inf bucket is appended.
func NewHistogram(bounds []float64) *Histogram { return newHistogram(bounds) }

// bucketFor returns the index of the first bucket whose upper bound
// admits x (the +Inf bucket for values above every bound).
func (h *Histogram) bucketFor(x float64) int {
	// Linear scan: bucket counts are small (≈15) and the scan beats a
	// binary search's branch misses at this size.
	for i, b := range h.bounds {
		if x <= b {
			return i
		}
	}
	return len(h.bounds)
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketFor(x)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	xi := int64(x)
	if !h.hasMin.Load() {
		h.min.Store(xi)
		h.hasMin.Store(true)
	} else if xi < h.min.Load() {
		h.min.Store(xi)
	}
}

// ObserveExemplar records one sample and attaches an exemplar to its
// bucket, replacing any earlier exemplar there. The exemplar labels
// identify where the sample came from (e.g. trace_id), letting a
// reader jump from a suspicious bucket straight to the recording that
// landed in it.
func (h *Histogram) ObserveExemplar(x float64, labels ...Label) {
	if h == nil {
		return
	}
	h.Observe(x)
	ex := &Exemplar{Labels: append([]Label(nil), labels...), Value: x}
	h.exemplars[h.bucketFor(x)].Store(ex)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// lowerEdge returns the inclusive lower edge of bucket i.
func (h *Histogram) lowerEdge(i int) float64 {
	if i == 0 {
		if h.hasMin.Load() {
			if m := float64(h.min.Load()); m < h.bounds[0] {
				return m
			}
		}
		return 0
	}
	return h.bounds[i-1]
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by locating the bucket
// holding the q·N-th sample and interpolating linearly inside it —
// the bucketed analogue of stats.Quantile's order-statistic
// interpolation. Samples in the +Inf bucket clamp to the top bound, so
// the result is always finite. Out-of-range and NaN q clamp into
// [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.Count() == 0 {
		return 0
	}
	if len(h.bounds) == 0 {
		// Degenerate layout: only the open bucket exists, so the
		// observed minimum is the one finite edge we can report.
		if h.hasMin.Load() {
			return float64(h.min.Load())
		}
		return 0
	}
	// The negated comparisons are NaN-safe: NaN fails both and clamps
	// to 0 rather than producing a NaN target that matches no bucket.
	if !(q >= 0) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count.Load())
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // open bucket: clamp
			}
			lo := h.lowerEdge(i)
			frac := (target - cum) / n
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += n
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// writeText renders the histogram in Prometheus exposition form:
// cumulative le-labelled buckets plus _sum and _count.
func (h *Histogram) writeText(w io.Writer, name string, labels []Label) error {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		// OpenMetrics exemplar suffix: " # {labels} value" after the
		// bucket sample. Prometheus text-format parsers that predate
		// exemplars treat "#" as a comment start, so the line stays
		// readable either way.
		suffix := ""
		if ex := h.exemplars[i].Load(); ex != nil {
			suffix = fmt.Sprintf(" # %s %s", formatLabels(ex.Labels), formatValue(ex.Value))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			name, formatLabels(labels, L("le", le)), cum, suffix); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, formatLabels(labels), formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, formatLabels(labels), h.Count())
	return err
}
