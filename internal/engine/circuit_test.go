package engine

import (
	"encoding/json"
	"slices"
	"testing"

	"uwm/internal/circopt"
)

// circuitSpecJSON is a tiny explicit netlist: out = (in0 & in1) | in0.
var circuitSpecJSON = circopt.SpecJSON{
	NumInputs: 2,
	Gates: []circopt.GateJSON{
		{Op: "and", A: 0, B: 1},
		{Op: "or", A: 2, B: 0},
	},
	Outputs: []int{3},
}

// TestCircuitJobPresets runs every preset through the circuit job type
// and checks the optimizer actually earned its keep.
func TestCircuitJobPresets(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	for _, circuit := range []string{"adder8", "adder16", "adder32", "sha1round"} {
		random := 3
		if circuit == "sha1round" {
			random = 1 // 224 inputs, keep the test quick
		}
		j := mustSubmit(t, e, JobSpec{
			Type:   JobTypeCircuit,
			Params: rawParams(t, CircuitParams{Circuit: circuit, Random: random}),
		})
		snap := waitJob(t, j)
		if snap.Status != StatusDone {
			t.Fatalf("circuit %s: status %s, err %q", circuit, snap.Status, snap.Error)
		}
		var res CircuitResult
		if err := json.Unmarshal(snap.Result.Value, &res); err != nil {
			t.Fatalf("circuit %s: bad result: %v", circuit, err)
		}
		if res.Circuit != circuit {
			t.Errorf("result names %q, want %q", res.Circuit, circuit)
		}
		if res.GatesOut >= res.GatesIn || res.Eliminated == 0 {
			t.Errorf("circuit %s: optimizer eliminated nothing (%d in, %d out)",
				circuit, res.GatesIn, res.GatesOut)
		}
		if len(res.Fingerprint) != 64 {
			t.Errorf("circuit %s: fingerprint %q is not sha256 hex", circuit, res.Fingerprint)
		}
		if len(res.Outputs) != random || len(res.Golden) != random {
			t.Errorf("circuit %s: %d/%d output rows, want %d",
				circuit, len(res.Outputs), len(res.Golden), random)
		}
		// The paper's gates err, but a whole batch below coin-flip
		// would mean the netlist mapping is broken.
		if res.Accuracy < 0.5 {
			t.Errorf("circuit %s: accuracy %.2f below 0.5", circuit, res.Accuracy)
		}
	}
}

// TestCircuitJobOptimizedMatchesUnoptimized is the equivalence
// property surfaced at the job level: the optimized plan and the
// unoptimized serial walk must produce byte-identical outputs for the
// same submission under the engine's replayable noise profile.
func TestCircuitJobOptimizedMatchesUnoptimized(t *testing.T) {
	inputs := [][]int{
		{1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1},
		{0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0},
	}
	opt := false
	results := make([]CircuitResult, 2)
	for i, optimize := range []*bool{nil, &opt} {
		// Fresh engines so both jobs get submission index 0 — the same
		// job sub-seed, hence the same noise stream.
		e := newTestEngine(t, Config{Workers: 1})
		j := mustSubmit(t, e, JobSpec{
			Type:   JobTypeCircuit,
			Params: rawParams(t, CircuitParams{Circuit: "adder8", Inputs: inputs, Optimize: optimize}),
		})
		snap := waitJob(t, j)
		if snap.Status != StatusDone {
			t.Fatalf("status %s, err %q", snap.Status, snap.Error)
		}
		if err := json.Unmarshal(snap.Result.Value, &results[i]); err != nil {
			t.Fatal(err)
		}
	}
	optimized, serial := results[0], results[1]
	spec, err := circopt.Preset("adder8")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := circopt.Unoptimized(spec)
	if err != nil {
		t.Fatal(err)
	}
	if serial.GatesOut != plain.Stats.GatesOut || serial.Eliminated != 0 {
		t.Errorf("unoptimized run reports %d gates out, %d eliminated; want the %d gates it ran, 0 eliminated",
			serial.GatesOut, serial.Eliminated, plain.Stats.GatesOut)
	}
	if optimized.Fingerprint != serial.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", optimized.Fingerprint, serial.Fingerprint)
	}
	for v := range inputs {
		if !slices.Equal(optimized.Outputs[v], serial.Outputs[v]) {
			t.Errorf("vector %d: optimized %v != unoptimized %v",
				v, optimized.Outputs[v], serial.Outputs[v])
		}
	}
}

// TestCircuitJobPlanCache: repeated submissions of the same netlist
// hit the engine's shared content-addressed cache.
func TestCircuitJobPlanCache(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	for i := 0; i < 3; i++ {
		j := mustSubmit(t, e, JobSpec{
			Type:   JobTypeCircuit,
			Params: rawParams(t, CircuitParams{Circuit: "adder8", Random: 1}),
		})
		if snap := waitJob(t, j); snap.Status != StatusDone {
			t.Fatalf("submission %d: status %s, err %q", i, snap.Status, snap.Error)
		}
	}
	hits, misses, entries := e.plans.Stats()
	if misses != 1 || hits != 2 || entries != 1 {
		t.Errorf("plan cache hits=%d misses=%d entries=%d, want 2/1/1", hits, misses, entries)
	}
}

// TestCircuitJobExplicitSpec submits a netlist inline instead of by
// preset name.
func TestCircuitJobExplicitSpec(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	j := mustSubmit(t, e, JobSpec{
		Type:   JobTypeCircuit,
		Params: rawParams(t, CircuitParams{Spec: &circuitSpecJSON, Inputs: [][]int{{0, 0}, {1, 0}, {1, 1}}}),
	})
	snap := waitJob(t, j)
	if snap.Status != StatusDone {
		t.Fatalf("status %s, err %q", snap.Status, snap.Error)
	}
	var res CircuitResult
	if err := json.Unmarshal(snap.Result.Value, &res); err != nil {
		t.Fatal(err)
	}
	if res.Circuit != "custom" {
		t.Errorf("result names %q, want custom", res.Circuit)
	}
	if res.Total != 3 {
		t.Errorf("scored %d bits, want 3 (one output × three vectors)", res.Total)
	}
}

// TestCircuitJobRejectsBadParams covers the validation surface.
func TestCircuitJobRejectsBadParams(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	for name, params := range map[string]CircuitParams{
		"unknown preset":  {Circuit: "nope"},
		"wrong arity":     {Circuit: "adder8", Inputs: [][]int{{1, 0}}},
		"both selections": {Circuit: "adder8", Spec: &circuitSpecJSON},
	} {
		j := mustSubmit(t, e, JobSpec{Type: JobTypeCircuit, Params: rawParams(t, params)})
		if snap := waitJob(t, j); snap.Status != StatusFailed {
			t.Errorf("%s: status %s, want failed", name, snap.Status)
		}
	}
}
