package core

import (
	"fmt"

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

// MeasureBPGate runs n activations of a BP-family gate with uniformly
// random inputs and scores them against the gate's truth table.
func MeasureBPGate(g *BPGate, n int, rng *noise.RNG) (AccuracyReport, error) {
	rep := AccuracyReport{Gate: g.Name(), Operations: n}
	in := make([]int, g.Arity())
	start := g.m.cpu.TSC()
	for i := 0; i < n; i++ {
		for j := range in {
			in[j] = rng.Bit()
		}
		got, err := g.Run(in...)
		if err != nil {
			return rep, err
		}
		if got == g.Golden(in) {
			rep.Correct++
		}
	}
	rep.Cycles = g.m.cpu.TSC() - start
	ops, correct := g.m.accuracyInstruments(g.Name(), "bp")
	ops.Add(uint64(rep.Operations))
	correct.Add(uint64(rep.Correct))
	return rep, nil
}

// MeasureTSXGate runs n activations of a TSX-family gate with uniformly
// random inputs, scoring all outputs; an operation is correct only when
// every output matches (the Table 8 convention for AND-OR).
func MeasureTSXGate(g *TSXGate, n int, rng *noise.RNG) (AccuracyReport, error) {
	rep := AccuracyReport{Gate: g.Name(), Operations: n}
	in := make([]int, g.Arity())
	start := g.m.cpu.TSC()
	abortsBefore := g.m.cpu.Stats().SpuriousAborts
	for i := 0; i < n; i++ {
		for j := range in {
			in[j] = rng.Bit()
		}
		got, err := g.Run(in...)
		if err != nil {
			return rep, err
		}
		want := g.Golden(in)
		ok := true
		for k := range want {
			if got[k] != want[k] {
				ok = false
				break
			}
		}
		if ok {
			rep.Correct++
		}
	}
	rep.Cycles = g.m.cpu.TSC() - start
	rep.SpuriousAborts = int(g.m.cpu.Stats().SpuriousAborts - abortsBefore)
	ops, correct := g.m.accuracyInstruments(g.Name(), "tsx")
	ops.Add(uint64(rep.Operations))
	correct.Add(uint64(rep.Correct))
	return rep, nil
}

// DelaySample is one timed gate activation, keyed by its input vector —
// the rows of Tables 6 and 7 aggregate these per input combination.
type DelaySample struct {
	Inputs []int
	Deltas []int64 // measured read latency per output, in cycles
	Bits   []int
}

// CollectTSXDelays runs n activations per input combination of a TSX
// gate and returns every timed sample, for the delay tables.
func CollectTSXDelays(g *TSXGate, nPerCombo int) ([]DelaySample, error) {
	combos := 1 << g.Arity()
	out := make([]DelaySample, 0, combos*nPerCombo)
	for c := 0; c < combos; c++ {
		in := make([]int, g.Arity())
		for j := range in {
			in[j] = (c >> j) & 1
		}
		for i := 0; i < nPerCombo; i++ {
			bits, deltas, err := g.RunTimed(in...)
			if err != nil {
				return nil, err
			}
			out = append(out, DelaySample{
				Inputs: append([]int(nil), in...),
				Deltas: append([]int64(nil), deltas...),
				Bits:   append([]int(nil), bits...),
			})
		}
	}
	return out, nil
}

// CollectBPTimings runs n activations of a BP gate with random inputs
// and returns (expected output, measured latency) pairs — the samples
// behind the KDE plots of Figures 7 and 8.
func CollectBPTimings(g *BPGate, n int, rng *noise.RNG) (zeros, ones []int64, err error) {
	in := make([]int, g.Arity())
	for i := 0; i < n; i++ {
		for j := range in {
			in[j] = rng.Bit()
		}
		_, delta, err := g.RunTimed(in...)
		if err != nil {
			return nil, nil, err
		}
		if g.Golden(in) == 1 {
			ones = append(ones, delta)
		} else {
			zeros = append(zeros, delta)
		}
	}
	return zeros, ones, nil
}
