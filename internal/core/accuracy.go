package core

import (
	"fmt"
	"slices"

	"uwm/internal/noise"
)

// AccuracyReport summarizes an accuracy experiment over one gate, the
// measurement behind the paper's Tables 2, 5 and 8.
type AccuracyReport struct {
	Gate           string
	Operations     int
	Correct        int
	SpuriousAborts int   // noise-injected TSX aborts during the run
	Cycles         int64 // total simulated cycles spent
}

// Accuracy returns the fraction of correct operations.
func (r AccuracyReport) Accuracy() float64 {
	if r.Operations == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Operations)
}

// OpsPerSecond converts simulated cycles to an executions-per-second
// figure at the given clock frequency (the paper's machines ran at
// 2.3 GHz), making Table 2's throughput column comparable in shape.
func (r AccuracyReport) OpsPerSecond(hz float64) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Operations) / (float64(r.Cycles) / hz)
}

// String renders the report for logs.
func (r AccuracyReport) String() string {
	return fmt.Sprintf("%s: %d/%d correct (%.5f), %d spurious aborts",
		r.Gate, r.Correct, r.Operations, r.Accuracy(), r.SpuriousAborts)
}

// MeasureGate runs n activations of g with uniformly random inputs and
// scores them against its truth table; an operation is correct only
// when every output matches (the Table 8 convention for AND-OR). It
// allocates nothing per activation.
func MeasureGate(g Gate, n int, rng *noise.RNG) (AccuracyReport, error) {
	b := g.base()
	rep := AccuracyReport{Gate: b.name, Operations: n}
	in, got, want := make([]int, b.arity), make([]int, g.Outputs()), make([]int, g.Outputs())
	deltas := make([]int64, g.Outputs())
	start := b.m.cpu.TSC()
	abortsBefore := b.m.cpu.Stats().SpuriousAborts
	for i := 0; i < n; i++ {
		for j := range in {
			in[j] = rng.Bit()
		}
		if err := g.Activate(in, got, deltas); err != nil {
			return rep, err
		}
		g.Truth(in, want)
		if slices.Equal(got, want) {
			rep.Correct++
		}
	}
	rep.Cycles = b.m.cpu.TSC() - start
	rep.SpuriousAborts = int(b.m.cpu.Stats().SpuriousAborts - abortsBefore)
	ops, correct := b.m.accuracyInstruments(b.name, b.family)
	ops.Add(uint64(rep.Operations))
	correct.Add(uint64(rep.Correct))
	return rep, nil
}

// DelaySample is one timed gate activation: its input vector and the
// measured read latency of each output, in cycles.
type DelaySample struct {
	Inputs []int
	Deltas []int64
}

// CollectTimings activates g once per input vector, in order, and
// returns every timed sample — the raw data behind Tables 6 and 7 and
// Figures 7 and 8. Samples alias the caller's vectors.
func CollectTimings(g Gate, inputs [][]int) ([]DelaySample, error) {
	k := g.Outputs()
	out := make([]DelaySample, len(inputs))
	bits, deltas := make([]int, k), make([]int64, len(inputs)*k)
	for i, in := range inputs {
		d := deltas[i*k : (i+1)*k : (i+1)*k]
		if err := g.Activate(in, bits, d); err != nil {
			return nil, err
		}
		out[i] = DelaySample{Inputs: in, Deltas: d}
	}
	return out, nil
}

// Combinations returns every input vector of the given arity in truth
// table order: vector c sets input j to bit j of c.
func Combinations(arity int) [][]int {
	out := make([][]int, 1<<arity)
	for c := range out {
		out[c] = make([]int, arity)
		for j := range out[c] {
			out[c][j] = c >> j & 1
		}
	}
	return out
}

// RandomInputs draws n input vectors of the given arity from rng, bit
// by bit in vector order — the draws MeasureGate makes.
func RandomInputs(rng *noise.RNG, n, arity int) [][]int {
	flat := make([]int, n*arity)
	for i := range flat {
		flat[i] = rng.Bit()
	}
	out := make([][]int, n)
	for i := range out {
		out[i] = flat[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return out
}
