package circopt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"uwm/internal/core"
)

// SpecJSON is the canonical wire format of a netlist: the shape the
// engine's circuit job type accepts and the byte form the plan-cache
// fingerprint hashes. Gate output wires are implied by position (gate
// i defines wire NumInputs+i, the only layout Validate accepts), so
// they are not serialized.
type SpecJSON struct {
	NumInputs int        `json:"num_inputs"`
	Gates     []GateJSON `json:"gates"`
	Outputs   []int      `json:"outputs"`
}

// GateJSON is one serialized netlist gate. B is meaningful only for
// "and" and "or".
type GateJSON struct {
	Op string `json:"op"`
	A  int    `json:"a"`
	B  int    `json:"b"`
}

// EncodeSpec converts a netlist to its canonical JSON shape.
func EncodeSpec(spec *core.CircuitSpec) *SpecJSON {
	out := &SpecJSON{
		NumInputs: spec.NumInputs,
		Gates:     make([]GateJSON, len(spec.Gates)),
		Outputs:   make([]int, len(spec.Outputs)),
	}
	for i, g := range spec.Gates {
		out.Gates[i] = GateJSON{Op: g.Op.String(), A: int(g.A), B: int(g.B)}
	}
	for i, w := range spec.Outputs {
		out.Outputs[i] = int(w)
	}
	return out
}

// maxInputs bounds a decoded netlist's input count. The count is one
// number on the wire, but every evaluation allocates a vector of that
// many wires; sha1round, the largest preset, has 224 inputs.
const maxInputs = 4096

// DecodeSpec converts the canonical JSON shape back into a validated
// netlist. It rejects more than maxInputs inputs.
func (sj *SpecJSON) DecodeSpec() (*core.CircuitSpec, error) {
	if sj.NumInputs > maxInputs {
		return nil, fmt.Errorf("circopt: num_inputs %d exceeds the bound of %d", sj.NumInputs, maxInputs)
	}
	spec := core.NewCircuitSpec(sj.NumInputs)
	for i, g := range sj.Gates {
		out := core.WireID(sj.NumInputs + i)
		gate := core.CircuitGate{A: core.WireID(g.A), B: core.WireID(g.B), Out: out}
		switch g.Op {
		case "assign":
			gate.Op = core.CircAssign
			gate.B = 0
		case "and":
			gate.Op = core.CircAnd
		case "or":
			gate.Op = core.CircOr
		case "not":
			gate.Op = core.CircNot
			gate.B = 0
		default:
			return nil, fmt.Errorf("circopt: gate %d has unknown op %q", i, g.Op)
		}
		spec.Gates = append(spec.Gates, gate)
	}
	for _, w := range sj.Outputs {
		spec.Output(core.WireID(w))
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("circopt: decoded netlist invalid: %w", err)
	}
	return spec, nil
}

// Fingerprint content-addresses (netlist, options): sha256 over the
// canonical JSON of the spec plus the sorted constant bindings, hex
// encoded — the same canonicalize-then-hash discipline as the cluster
// gateway's result cache, so equal circuits collide onto one plan no
// matter how the caller built or transported them.
func Fingerprint(spec *core.CircuitSpec, opts Options) (string, error) {
	binds := make([][2]int, 0, len(opts.Bind))
	for w, b := range opts.Bind {
		binds = append(binds, [2]int{int(w), b & 1})
	}
	sort.Slice(binds, func(i, j int) bool { return binds[i][0] < binds[j][0] })
	canonical, err := json.Marshal(struct {
		Spec *SpecJSON `json:"spec"`
		Bind [][2]int  `json:"bind,omitempty"`
	}{Spec: EncodeSpec(spec), Bind: binds})
	if err != nil {
		return "", fmt.Errorf("circopt: canonicalizing netlist: %w", err)
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:]), nil
}
