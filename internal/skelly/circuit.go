package skelly

import (
	"fmt"

	"uwm/internal/circopt"
	"uwm/internal/core"
	"uwm/internal/noise"
)

// GateOp executes one netlist gate operation, mapping the netlist ops
// onto the library's weird gates: AND and OR run their BP gates
// directly, NOT runs NAND(a, a) (§3.2's universality), and ASSIGN is
// pure wiring — no activation, the input returned unchanged. Every
// non-assign result is stored into an architecturally visible wire
// slot by the plan evaluators, so it counts against the §5.2
// visibility metric. GateOp is circopt.GateLib's execution surface.
func (s *Skelly) GateOp(op core.CircuitOp, a, b int) (int, error) {
	switch op {
	case core.CircAssign:
		return a, nil
	case core.CircAnd:
		v, err := s.And(a, b)
		if err != nil {
			return 0, err
		}
		s.MarkVisible(1)
		return v, nil
	case core.CircOr:
		v, err := s.Or(a, b)
		if err != nil {
			return 0, err
		}
		s.MarkVisible(1)
		return v, nil
	case core.CircNot:
		return s.Not(a)
	default:
		return 0, fmt.Errorf("skelly: unsupported netlist op %v", op)
	}
}

// EvalSpec evaluates a netlist serially and unoptimized, gate by gate
// in source order — circopt.EvalPlan over the netlist's unoptimized
// plan, so the walk stays byte-aligned with optimized plans of the
// same netlist.
func (s *Skelly) EvalSpec(spec *core.CircuitSpec, inputs []int, evalSeed uint64) ([]int, error) {
	return circopt.EvalSpec(s, spec, inputs, evalSeed)
}

// EvalPlanBatch evaluates a batch of input vectors against one plan,
// deriving vector v's seed as SubSeed(evalSeed, v) — the same
// per-vector seed schedule circopt.Pool.EvalBatch uses, so a serial
// batch and a pooled batch are byte-identical.
func (s *Skelly) EvalPlanBatch(plan *circopt.Plan, batch [][]int, evalSeed uint64) ([][]int, error) {
	outs := make([][]int, len(batch))
	for v, inputs := range batch {
		out, err := circopt.EvalPlan(s, plan, inputs, noise.SubSeed(evalSeed, uint64(v)))
		if err != nil {
			return nil, err
		}
		outs[v] = out
	}
	return outs, nil
}
