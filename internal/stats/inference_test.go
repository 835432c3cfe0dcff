package stats

import (
	"math"
	"testing"
)

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// TestMannWhitneySeparated reproduces the classic fixture: {1..5} vs
// {6..10} gives U = 0; the normal approximation yields z ≈ −2.611 and a
// two-sided p ≈ 0.009 (scipy's ranksums reports 0.0090).
func TestMannWhitneySeparated(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{6, 7, 8, 9, 10}
	u := MannWhitney(xs, ys)
	near(t, "U", u.U, 0, 1e-9)
	near(t, "Z", u.Z, -2.611, 0.005)
	near(t, "P", u.P, 0.0090, 0.0005)

	// Symmetry: swapping the samples flips U and Z, keeps P.
	v := MannWhitney(ys, xs)
	near(t, "U swapped", v.U, 25, 1e-9)
	near(t, "Z swapped", v.Z, 2.611, 0.005)
	near(t, "P swapped", v.P, u.P, 1e-12)
}

// TestMannWhitneyInterleaved: perfectly interleaved samples carry no
// evidence of a shift.
func TestMannWhitneyInterleaved(t *testing.T) {
	xs := []float64{1, 3, 5, 7}
	ys := []float64{2, 4, 6, 8}
	u := MannWhitney(xs, ys)
	if u.P < 0.5 {
		t.Errorf("interleaved samples: p = %v, want ≥ 0.5", u.P)
	}
}

func TestMannWhitneyDegenerate(t *testing.T) {
	if p := MannWhitney(nil, []float64{1, 2}).P; p != 1 {
		t.Errorf("empty xs: p = %v, want 1", p)
	}
	if p := MannWhitney([]float64{1, 2}, nil).P; p != 1 {
		t.Errorf("empty ys: p = %v, want 1", p)
	}
	// All values tied: zero variance, no verdict.
	if p := MannWhitney([]float64{5, 5, 5}, []float64{5, 5}).P; p != 1 {
		t.Errorf("all ties: p = %v, want 1", p)
	}
}

// TestMannWhitneyTies checks the tie-corrected variance on a worked
// fixture: xs={1,2,2,3}, ys={2,3,3,4}. Pooled ranks average to
// {1,3,3,6} for xs, so U = 13 − 10 = 3; the tie term is 48, giving
// variance 10.857, z = −1.517 and a two-sided p ≈ 0.129 (matching
// scipy.stats.mannwhitneyu, method="asymptotic", use_continuity=False).
func TestMannWhitneyTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{2, 3, 3, 4}
	u := MannWhitney(xs, ys)
	near(t, "U ties", u.U, 3, 1e-9)
	near(t, "Z ties", u.Z, -1.5174, 0.002)
	near(t, "P ties", u.P, 0.1293, 0.003)
}
