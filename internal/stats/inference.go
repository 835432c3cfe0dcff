package stats

import (
	"math"
	"sort"
)

// This file extends the descriptive toolkit with the inferential piece
// the bench-report comparator needs: the Mann-Whitney U rank-sum test
// that benchstat popularised for deciding whether two benchmark runs
// actually differ or merely wobble.

// UTest is the result of a two-sided Mann-Whitney U test.
type UTest struct {
	U float64 // rank-sum statistic of the first sample
	Z float64 // normal approximation with tie correction
	P float64 // two-sided p-value
}

// MannWhitney runs the two-sided Mann-Whitney U test on two independent
// samples using the normal approximation with tie correction — the
// decision procedure behind the comparator's "significant" verdicts.
// When either sample is empty, or every value is tied (zero variance),
// it returns P = 1: no evidence of a difference.
func MannWhitney(xs, ys []float64) UTest {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 {
		return UTest{P: 1}
	}

	// Rank the pooled sample, averaging ranks across ties.
	type obs struct {
		v     float64
		first bool
	}
	pool := make([]obs, 0, n1+n2)
	for _, x := range xs {
		pool = append(pool, obs{x, true})
	}
	for _, y := range ys {
		pool = append(pool, obs{y, false})
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].v < pool[j].v })

	var r1 float64      // rank sum of xs
	var tieTerm float64 // Σ (t³ − t) over tie groups
	for i := 0; i < len(pool); {
		j := i
		for j < len(pool) && pool[j].v == pool[i].v {
			j++
		}
		t := float64(j - i)
		avgRank := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			if pool[k].first {
				r1 += avgRank
			}
		}
		tieTerm += t*t*t - t
		i = j
	}

	u := r1 - float64(n1)*float64(n1+1)/2
	n := float64(n1 + n2)
	mu := float64(n1) * float64(n2) / 2
	variance := float64(n1) * float64(n2) / 12 * (n + 1 - tieTerm/(n*(n-1)))
	if variance <= 0 {
		return UTest{U: u, P: 1}
	}
	z := (u - mu) / math.Sqrt(variance)
	p := math.Erfc(math.Abs(z) / math.Sqrt2)
	return UTest{U: u, Z: z, P: p}
}
