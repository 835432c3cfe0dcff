package core

import (
	"runtime"
	"testing"

	"uwm/internal/trace"
)

// bytesPerRun is testing.AllocsPerRun for heap bytes: the bytes one
// call of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTSXActivationAllocs guards the untraced TSX activation: the
// transaction record is reused across regions, so Run allocates only
// the bits it returns (its latencies go to gate-owned scratch),
// RunTimed the bits and latencies it returns, and Activate, writing
// into caller-owned slices, nothing.
func TestTSXActivationAllocs(t *testing.T) {
	m := MustNewMachine(Options{Seed: 7})
	g, err := NewTSXAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	run := func() {
		if _, err := g.Run(i&1, i>>1&1); err != nil {
			t.Fatal(err)
		}
		i++
	}
	runTimed := func() {
		if _, _, err := g.RunTimed(i&1, i>>1&1); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if allocs := testing.AllocsPerRun(400, run); allocs != 1 {
		t.Errorf("TSX_AND Run: %v allocs, want 1", allocs)
	}
	if bytes := bytesPerRun(400, run); bytes > 32 {
		t.Errorf("TSX_AND Run: %v B, want at most 32", bytes)
	}
	if allocs := testing.AllocsPerRun(400, runTimed); allocs != 2 {
		t.Errorf("TSX_AND RunTimed: %v allocs, want 2", allocs)
	}
	checkGateActivationAllocs(t, g)
}

// checkGateActivationAllocs asserts that an activation through the Gate
// interface, into caller-owned slices, allocates nothing.
func checkGateActivationAllocs(t *testing.T, g Gate) {
	t.Helper()
	in, bits, deltas := make([]int, g.Arity()), make([]int, g.Outputs()), make([]int64, g.Outputs())
	i := 0
	run := func() {
		for j := range in {
			in[j] = i >> j & 1
		}
		if err := g.Activate(in, bits, deltas); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if allocs := testing.AllocsPerRun(400, run); allocs != 0 {
		t.Errorf("%s Gate.Activate: %v allocs, want 0", g.Name(), allocs)
	}
	if bytes := bytesPerRun(400, run); bytes >= 1 {
		t.Errorf("%s Gate.Activate: %v B, want under 1", g.Name(), bytes)
	}
}

// TestBPActivationAllocs guards the untraced BP activation, which
// allocates nothing: the gate's wiring is data, so the variadic inputs
// stay on the caller's stack. Heap statistics are process-wide, so the
// byte bound leaves room for a stray runtime allocation in the window.
func TestBPActivationAllocs(t *testing.T) {
	m := MustNewMachine(Options{Seed: 7, TrainIterations: 4})
	g, err := NewBPAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	run := func() {
		if _, err := g.Run(i&1, i>>1&1); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if allocs := testing.AllocsPerRun(400, run); allocs != 0 {
		t.Errorf("AND activation: %v allocs, want 0", allocs)
	}
	if bytes := bytesPerRun(400, run); bytes >= 1 {
		t.Errorf("AND activation: %v B, want under 1", bytes)
	}
	checkGateActivationAllocs(t, g)
}

// TestTracedActivationAllocs guards the traced activation path: with a
// live recorder attached, every instruction's commit and transient
// execution is recorded, and the disassembly, register names and
// timed-read texts those events carry are memoized, so after one
// warm-up activation neither gate family allocates. The ring is smaller
// than one activation's events, so the recorder stops growing during
// the warm-up.
func TestTracedActivationAllocs(t *testing.T) {
	for _, name := range []string{"AND", "TSX_XOR"} {
		rec := trace.NewRecorder(64)
		m := MustNewMachine(Options{Seed: 7, TrainIterations: 4, Sink: rec})
		g, err := NewGate(m, name)
		if err != nil {
			t.Fatal(err)
		}
		in, bits, deltas := make([]int, g.Arity()), make([]int, g.Outputs()), make([]int64, g.Outputs())
		i := 0
		run := func() {
			for j := range in {
				in[j] = i >> j & 1
			}
			if err := g.Activate(in, bits, deltas); err != nil {
				t.Fatal(err)
			}
			i++
		}
		run()
		if rec.Dropped() == 0 {
			t.Fatalf("%s: one activation did not fill a %d-event ring", name, len(rec.Events()))
		}
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("traced %s Gate.Activate: %v allocs, want 0", name, allocs)
		}
	}
}
