package circopt_test

import (
	"encoding/json"
	"testing"

	"uwm/internal/circopt"
)

// FuzzDecodeSpec drives the inline-netlist path a circuit job takes:
// JSON → SpecJSON.DecodeSpec → Optimize. Every input is either
// rejected with an error or yields a plan whose Golden agrees with the
// unoptimized CircuitSpec.Eval on a few input vectors.
func FuzzDecodeSpec(f *testing.F) {
	for _, name := range circopt.PresetNames() {
		spec, err := circopt.Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(circopt.EncodeSpec(spec))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint64(0x5a5a))
	}
	for _, seed := range []string{
		`{"num_inputs":2,"gates":[{"op":"and","a":0,"b":1},{"op":"or","a":2,"b":0}],"outputs":[3]}`,
		`{"num_inputs":2,"gates":[{"op":"and","a":0,"b":5}],"outputs":[2]}`,                    // undefined wire
		`{"num_inputs":1,"gates":[{"op":"and","a":0,"b":2},{"op":"not","a":0}],"outputs":[2]}`, // forward reference
		`{"num_inputs":2,"gates":[{"op":"and","a":0,"b":1}],"outputs":[7]}`,                    // dangling output
		`{"num_inputs":1,"gates":[{"op":"xor","a":0,"b":0}],"outputs":[1]}`,                    // unknown op
		`{"num_inputs":2000000000,"gates":[],"outputs":[0]}`,                                   // oversized num_inputs
		`{"num_inputs":-1,"gates":[],"outputs":[0]}`,                                           // negative num_inputs
		`{"num_inputs":3,"gates":[{"op":"not","a":1},{"op":"assign","a":3},{"op":"and","a":4,"b":4}],"outputs":[5,0]}`,
	} {
		f.Add([]byte(seed), uint64(0xffff))
	}
	f.Fuzz(func(t *testing.T, data []byte, bits uint64) {
		var sj circopt.SpecJSON
		if json.Unmarshal(data, &sj) != nil {
			return
		}
		spec, err := sj.DecodeSpec()
		if err != nil {
			return
		}
		plan, err := circopt.Optimize(spec, circopt.Options{})
		if err != nil {
			return
		}
		zeros := make([]int, spec.NumInputs)
		ones := make([]int, spec.NumInputs)
		mixed := make([]int, spec.NumInputs)
		for i := range ones {
			ones[i] = 1
			mixed[i] = int(bits>>(i%64)) & 1
		}
		for _, in := range [][]int{zeros, ones, mixed} {
			want, err := spec.Eval(in)
			if err != nil {
				t.Fatalf("Eval of a decoded netlist failed: %v", err)
			}
			got, err := plan.Golden(in)
			if err != nil {
				t.Fatalf("Golden of an optimized netlist failed: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("plan has %d outputs, netlist %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("output %d: plan %d, netlist %d on %v", i, got[i], want[i], in)
				}
			}
		}
	})
}
