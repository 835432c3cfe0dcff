package core

import (
	"runtime"
	"testing"
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
// transaction record is reused across regions, so only the returned
// bit and latency slices are allocated.
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
	if allocs := testing.AllocsPerRun(400, run); allocs > 3 {
		t.Errorf("TSX_AND activation: %v allocs, want at most 3", allocs)
	}
	if bytes := bytesPerRun(400, run); bytes > 64 {
		t.Errorf("TSX_AND activation: %v B, want at most 64", bytes)
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
}
