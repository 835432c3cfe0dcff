package core

import (
	"slices"
	"testing"

	"uwm/internal/isa"
	"uwm/internal/noise"
)

// quiet returns a deterministic machine for truth-table tests.
func quiet(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(Options{Seed: 42, TrainIterations: 4})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestCalibrationThreshold(t *testing.T) {
	m := quiet(t)
	th := m.Threshold()
	if th < 40 || th > 200 {
		t.Fatalf("threshold %d outside plausible hit/miss gap", th)
	}
}

// testGateTruth runs the named catalogue gate's truth table on a quiet
// machine, through the Gate interface, checking every output.
func testGateTruth(t *testing.T, name string) {
	t.Helper()
	g, err := NewGate(quiet(t), name)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	got, want := make([]int, g.Outputs()), make([]int, g.Outputs())
	deltas := make([]int64, g.Outputs())
	for _, in := range Combinations(g.Arity()) {
		// Repeat each combination to exercise persistent predictor and
		// cache state between activations.
		for rep := 0; rep < 3; rep++ {
			if err := g.Activate(in, got, deltas); err != nil {
				t.Fatalf("%s%v run %d: %v", name, in, rep, err)
			}
			g.Truth(in, want)
			if !slices.Equal(got, want) {
				t.Errorf("%s%v rep %d = %v, want %v", name, in, rep, got, want)
			}
		}
	}
}

func TestBPAndTruthTable(t *testing.T)      { testGateTruth(t, "AND") }
func TestBPOrTruthTable(t *testing.T)       { testGateTruth(t, "OR") }
func TestBPNandTruthTable(t *testing.T)     { testGateTruth(t, "NAND") }
func TestBPAndAndOrTruthTable(t *testing.T) { testGateTruth(t, "AND_AND_OR") }
func TestTSXAssignTruthTable(t *testing.T)  { testGateTruth(t, "TSX_ASSIGN") }
func TestTSXAndTruthTable(t *testing.T)     { testGateTruth(t, "TSX_AND") }
func TestTSXOrTruthTable(t *testing.T)      { testGateTruth(t, "TSX_OR") }
func TestTSXAndOrTruthTable(t *testing.T)   { testGateTruth(t, "TSX_AND_OR") }
func TestTSXNotTruthTable(t *testing.T)     { testGateTruth(t, "TSX_NOT") }
func TestTSXXorTruthTable(t *testing.T)     { testGateTruth(t, "TSX_XOR") }

// TestCatalog checks every catalogue entry builds a gate whose name and
// arity match the entry, and that an unknown name builds nothing.
func TestCatalog(t *testing.T) {
	m := quiet(t)
	for _, s := range Catalog() {
		g, err := s.New(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if g.Name() != s.Name || g.Arity() != s.Arity {
			t.Errorf("catalogue entry %s/%d builds %s/%d", s.Name, s.Arity, g.Name(), g.Arity())
		}
		if l, ok := LookupGate(s.Name); !ok || l.Name != s.Name {
			t.Errorf("LookupGate(%s) = %v, %v", s.Name, l.Name, ok)
		}
	}
	if g, err := NewGate(m, "NOPE"); g != nil || err == nil {
		t.Errorf("NewGate(NOPE) = %v, %v; want nil gate and an error", g, err)
	}
}

// TestGatesShareMachine builds every gate on one machine and checks they
// do not corrupt each other — the precondition for circuits.
func TestGatesShareMachine(t *testing.T) {
	m := quiet(t)
	and, err := NewBPAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	xor, err := NewTSXXor(m)
	if err != nil {
		t.Fatal(err)
	}
	nand, err := NewBPNand(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range Combinations(2) {
		a, err := and.Run(in...)
		if err != nil {
			t.Fatal(err)
		}
		x, err := xor.Run(in...)
		if err != nil {
			t.Fatal(err)
		}
		n, err := nand.Run(in...)
		if err != nil {
			t.Fatal(err)
		}
		if a != in[0]&in[1] || x[0] != in[0]^in[1] || n != 1-in[0]&in[1] {
			t.Errorf("in=%v: and=%d xor=%d nand=%d", in, a, x[0], n)
		}
	}
}

// TestFireSectionsArchitecturallyInvisible verifies the paper's central
// claim mechanically: no gate's fire section contains an architectural
// boolean instruction computing its logic.
func TestFireSectionsArchitecturallyInvisible(t *testing.T) {
	m := quiet(t)
	bpAnd, _ := NewBPAnd(m)
	bpOr, _ := NewBPOr(m)
	bpNand, _ := NewBPNand(m)
	tAnd, _ := NewTSXAnd(m)
	tOr, _ := NewTSXOr(m)
	tXor, _ := NewTSXXor(m)

	for _, op := range []isa.Op{isa.AND, isa.OR, isa.XOR} {
		for _, g := range []interface{ FireUses(isa.Op) bool }{bpAnd, bpOr, bpNand, tAnd, tOr, tXor} {
			if g.(interface{ Name() string }).Name() != "" && g.FireUses(op) {
				t.Errorf("%v fire section uses architectural %v", g.(interface{ Name() string }).Name(), op)
			}
		}
	}
}

// TestNoisyAccuracyBands runs gates under the paper noise profile and
// checks accuracy lands in the reported bands: near-perfect for BP/IC
// gates (Table 5), 0.90–0.995 for TSX gates (Table 8).
func TestNoisyAccuracyBands(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy bands need thousands of activations")
	}
	m, err := NewMachine(Options{Seed: 7, Noise: noise.Paper(), TrainIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRNG(99)

	and, _ := NewBPAnd(m)
	rep, err := MeasureGate(and, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy() < 0.995 {
		t.Errorf("BP AND accuracy %.4f below 0.995", rep.Accuracy())
	}

	txor, _ := NewTSXXor(m)
	rep2, err := MeasureGate(txor, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Accuracy() < 0.85 || rep2.Accuracy() > 0.99 {
		t.Errorf("TSX XOR accuracy %.4f outside (0.85, 0.99)", rep2.Accuracy())
	}

	tand, _ := NewTSXAnd(m)
	rep3, err := MeasureGate(tand, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Accuracy() < 0.95 {
		t.Errorf("TSX AND accuracy %.4f below 0.95", rep3.Accuracy())
	}
	if rep3.Accuracy() <= rep2.Accuracy() {
		t.Errorf("TSX AND (%.4f) should beat multi-window XOR (%.4f)", rep3.Accuracy(), rep2.Accuracy())
	}
}
