// Package stats implements the small statistics toolkit the evaluation
// harness uses to reproduce the paper's tables and figures: five-number
// summaries with mean and standard deviation (Tables 3, 6, 7), histograms
// (Figure 6) and Gaussian kernel density estimates (Figures 7 and 8).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary is the descriptive statistics row used throughout the paper's
// evaluation section: minimum, quartiles, maximum, standard deviation and
// mean of a sample.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	StdDev float64
	Mean   float64
}

// Summarize computes a Summary of xs. It returns the zero Summary when xs
// is empty. xs is not modified.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)

	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))

	var ss float64
	for _, x := range sorted {
		d := x - mean
		ss += d * d
	}
	var sd float64
	if len(sorted) > 1 {
		sd = math.Sqrt(ss / float64(len(sorted)-1))
	}

	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     Quantile(sorted, 0.25),
		Median: Quantile(sorted, 0.5),
		Q3:     Quantile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		StdDev: sd,
		Mean:   mean,
	}
}

// SummarizeInts converts xs to float64 and summarizes them.
func SummarizeInts(xs []int64) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted, which must be in
// ascending order, using linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	switch {
	case len(sorted) == 0:
		return 0
	case len(sorted) == 1:
		return sorted[0]
	case q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MedianInt64 returns the median of xs (lower-middle for even lengths,
// matching the paper's skelly timing-median selection). It panics on an
// empty slice.
func MedianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}

// Bin is one histogram bucket over [Lo, Hi) holding Count samples.
type Bin struct {
	Lo, Hi float64
	Count  int
}

// HistogramInts buckets integer samples with unit-aligned bins of the
// given width starting at the sample minimum.
func HistogramInts(xs []int64, width int64) []Bin {
	if len(xs) == 0 || width <= 0 {
		return nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	n := int((hi-lo)/width) + 1
	bins := make([]Bin, n)
	for i := range bins {
		bins[i].Lo = float64(lo + int64(i)*width)
		bins[i].Hi = float64(lo + int64(i+1)*width)
	}
	for _, x := range xs {
		bins[(x-lo)/width].Count++
	}
	return bins
}

// Point is one (x, density) sample of a kernel density estimate.
type Point struct {
	X, Density float64
}

// KDE computes a Gaussian kernel density estimate of xs evaluated at
// points equally spaced samples across [min-3h, max+3h], where h is the
// bandwidth. A non-positive bandwidth selects Silverman's rule of thumb.
// This reproduces the measured-timing KDE plots of Figures 7 and 8.
func KDE(xs []float64, bandwidth float64, points int) []Point {
	if len(xs) == 0 || points <= 0 {
		return nil
	}
	s := Summarize(xs)
	h := bandwidth
	if h <= 0 {
		// Silverman's rule of thumb; fall back to 1 for degenerate data.
		h = 1.06 * s.StdDev * math.Pow(float64(len(xs)), -0.2)
		if h <= 0 {
			h = 1
		}
	}
	lo, hi := s.Min-3*h, s.Max+3*h
	step := (hi - lo) / float64(points-1)
	out := make([]Point, points)
	norm := 1 / (float64(len(xs)) * h * math.Sqrt(2*math.Pi))
	for i := range out {
		x := lo + float64(i)*step
		var d float64
		for _, xi := range xs {
			u := (x - xi) / h
			d += math.Exp(-0.5 * u * u)
		}
		out[i] = Point{X: x, Density: d * norm}
	}
	return out
}

// RenderHistogram renders bins as an ASCII bar chart, one bin per line,
// scaled so the tallest bar spans width characters.
func RenderHistogram(bins []Bin, width int) string {
	if len(bins) == 0 {
		return "(no data)\n"
	}
	maxCount := 0
	for _, b := range bins {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	if maxCount == 0 {
		maxCount = 1
	}
	var sb strings.Builder
	for _, b := range bins {
		bar := b.Count * width / maxCount
		fmt.Fprintf(&sb, "%10.1f–%-10.1f |%-*s| %d\n",
			b.Lo, b.Hi, width, strings.Repeat("#", bar), b.Count)
	}
	return sb.String()
}

// RenderKDE renders a KDE curve as an ASCII plot, one x-sample per line.
func RenderKDE(pts []Point, width int) string {
	if len(pts) == 0 {
		return "(no data)\n"
	}
	maxD := 0.0
	for _, p := range pts {
		if p.Density > maxD {
			maxD = p.Density
		}
	}
	if maxD == 0 {
		maxD = 1
	}
	var sb strings.Builder
	for _, p := range pts {
		bar := int(p.Density / maxD * float64(width))
		fmt.Fprintf(&sb, "%10.1f |%-*s| %.6f\n",
			p.X, width, strings.Repeat("*", bar), p.Density)
	}
	return sb.String()
}
