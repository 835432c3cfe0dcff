package engine

import (
	"strings"
	"testing"

	"uwm/internal/circopt"
)

// boundCase is one submission against a request-field bound: wantErr
// empty means the job must succeed, otherwise it must fail with an
// error containing wantErr.
type boundCase struct {
	name    string
	spec    JobSpec
	wantErr string
}

func runBoundCases(t *testing.T, cases []boundCase) {
	t.Helper()
	e := newTestEngine(t, Config{Workers: 1})
	for _, tc := range cases {
		snap := waitJob(t, mustSubmit(t, e, tc.spec))
		if tc.wantErr == "" {
			if snap.Status != StatusDone {
				t.Errorf("%s: status %s (%s), want done", tc.name, snap.Status, snap.Error)
			}
			continue
		}
		if snap.Status != StatusFailed || !strings.Contains(snap.Error, tc.wantErr) {
			t.Errorf("%s: status %s error %q, want failed with %q", tc.name, snap.Status, snap.Error, tc.wantErr)
		}
	}
}

// TestCircuitNumInputsBound: an inline netlist's num_inputs costs a
// wire vector per evaluation, so it is bounded.
func TestCircuitNumInputsBound(t *testing.T) {
	inline := func(n int) JobSpec {
		return JobSpec{Type: JobTypeCircuit, Params: rawParams(t, CircuitParams{
			Spec:   &circopt.SpecJSON{NumInputs: n, Outputs: []int{0}},
			Random: 1,
		})}
	}
	runBoundCases(t, []boundCase{
		{"at the bound", inline(4096), ""},
		{"one over", inline(4097), "num_inputs 4097 exceeds the bound of 4096"},
		{"two billion", inline(2000000000), "num_inputs 2000000000 exceeds the bound of 4096"},
	})
}

// TestRandomBound: random costs one evaluation per vector in gate and
// circuit jobs alike.
func TestRandomBound(t *testing.T) {
	gate := func(n int) JobSpec {
		return JobSpec{Type: JobTypeGate, Params: rawParams(t, GateParams{Gate: "TSX_XOR", Random: n})}
	}
	circuit := func(n int) JobSpec {
		return JobSpec{Type: JobTypeCircuit, Params: rawParams(t, CircuitParams{Spec: &circuitSpecJSON, Random: n})}
	}
	runBoundCases(t, []boundCase{
		{"gate in bound", gate(2), ""},
		{"gate one over", gate(maxRandom + 1), "random 4097 exceeds the bound of 4096 vectors"},
		{"gate a billion", gate(1 << 30), "random 1073741824 exceeds the bound of 4096 vectors"},
		{"circuit in bound", circuit(2), ""},
		{"circuit one over", circuit(maxRandom + 1), "random 4097 exceeds the bound of 4096 vectors"},
		{"circuit a billion", circuit(1 << 30), "random 1073741824 exceeds the bound of 4096 vectors"},
	})
}

// TestCovertRepsBound: reps multiply the work inside one uncancelable
// Transfer byte, so they are bounded.
func TestCovertRepsBound(t *testing.T) {
	covert := func(reps int) JobSpec {
		return JobSpec{Type: JobTypeCovert, Params: rawParams(t, CovertParams{Message: "x", Reps: reps})}
	}
	runBoundCases(t, []boundCase{
		{"at the bound", covert(maxCovertReps), ""},
		{"one over", covert(maxCovertReps + 1), "covert reps 65 exceeds the bound of 64"},
		{"a billion", covert(1 << 30), "covert reps 1073741824 exceeds the bound of 64"},
	})
}

// TestJobsRejectNonBitInputs: gate and circuit jobs check every explicit
// input vector, its length and that each value is 0 or 1, before the
// first activation. A bad value fails the job instead of being scored
// against a truth table no gate can meet, so neither the health monitor
// nor the gate-accuracy budget is charged for it.
func TestJobsRejectNonBitInputs(t *testing.T) {
	gate := func(name string, in [][]int) JobSpec {
		return JobSpec{Type: JobTypeGate, Params: rawParams(t, GateParams{Gate: name, Inputs: in})}
	}
	circuit := func(in [][]int) JobSpec {
		return JobSpec{Type: JobTypeCircuit, Params: rawParams(t, CircuitParams{Spec: &circuitSpecJSON, Inputs: in})}
	}
	bad := []boundCase{
		{"bp gate", gate("OR", [][]int{{1, 0}, {5, 2}}), "gate OR input vector 1: value 5 at input 0 is not 0 or 1"},
		{"tsx gate", gate("TSX_ASSIGN", [][]int{{1}, {-1}}), "gate TSX_ASSIGN input vector 1: value -1 at input 0 is not 0 or 1"},
		{"circuit", circuit([][]int{{0, 1}, {1, 2}}), "circuit custom input vector 1: value 2 at input 1 is not 0 or 1"},
		{"gate arity", gate("AND", [][]int{{1, 1}, {1}}), "gate AND wants 2 inputs, got 1"},
	}
	e := newTestEngine(t, Config{Workers: 1})
	reads := e.Health()[0].Snapshot.Reads
	for _, tc := range bad {
		snap := waitJob(t, mustSubmit(t, e, tc.spec))
		if snap.Status != StatusFailed || !strings.Contains(snap.Error, tc.wantErr) {
			t.Errorf("%s: status %s error %q, want failed with %q", tc.name, snap.Status, snap.Error, tc.wantErr)
		}
	}
	if got := e.Health()[0].Snapshot.Reads; got != reads {
		t.Errorf("rejected jobs made %d timed reads, want none", got-reads)
	}
	runBoundCases(t, []boundCase{
		{"bp gate bits", gate("OR", [][]int{{1, 0}, {0, 0}}), ""},
		{"tsx gate bits", gate("TSX_ASSIGN", [][]int{{1}, {0}}), ""},
		{"circuit bits", circuit([][]int{{0, 1}, {1, 1}}), ""},
	})
}
