// Package circopt compiles boolean netlists (core.CircuitSpec) into
// optimized, leveled execution plans for the gate-by-gate weird-circuit
// evaluators. The paper's weird circuits (§4, §5.2) chain individual
// gate activations serially, paying full gate latency per wire even
// when wires are data-independent; circopt recovers that structure at
// compile time and hands it to a scheduler.
//
// The pipeline is:
//
//   - constant folding: inputs bound to constants via Options.Bind are
//     propagated through the netlist (AND with 0 folds to 0, OR with 1
//     to 1, single-constant operands collapse to wiring);
//   - copy propagation: CircAssign gates are pure wiring in the
//     gate-by-gate evaluator and are dissolved into their sources;
//   - common-subexpression elimination: structurally identical gates
//     (same op, same resolved operand wires, in that order) are merged
//     into one;
//   - dead-wire elimination: gates not transitively feeding an output
//     are dropped;
//   - topological leveling: every surviving gate is assigned the level
//     max(level of operands)+1, so all gates within a level are
//     data-independent and may execute in any order — or in parallel.
//
// Determinism is the load-bearing invariant (see DESIGN.md): every
// gate carries a noise-stream id derived from its *value number* — a
// content hash over (op, operand streams) — and evaluators reseed the
// executing machine with noise.SubSeed(evalSeed, stream) before each
// activation. Because merged duplicates share a value number, they
// would have drawn the same noise and produced the same bit; because
// every activation is reseeded, results do not depend on which machine
// runs a gate or in which order. An unoptimized serial walk and an
// optimized level-parallel run are therefore byte-identical, even when
// individual gates err under the seeded noise model. Plans built with
// non-empty Options.Bind trade that alignment away for folding (the
// gates they remove would still have been noisy in the serial walk)
// and are checked against the architectural golden instead.
package circopt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"uwm/internal/core"
)

// Options tunes plan construction.
type Options struct {
	// Bind fixes input wires to constant bits before optimization;
	// constant folding then removes every gate whose value the
	// bindings decide. A plan built with bindings is logically
	// equivalent to the source netlist evaluated at the bound inputs,
	// but is NOT noise-stream aligned with an unbound serial
	// evaluation: compare its outputs against the architectural
	// golden, not against a serial weird run.
	Bind map[core.WireID]int
}

// PlanGate is one surviving gate of an optimized plan. A and B are
// value-array slots (B is -1 for NOT); Out is the slot the result is
// stored into. Stream is the gate's noise-stream id: evaluators reseed
// the machine with noise.SubSeed(evalSeed, Stream) immediately before
// the activation.
type PlanGate struct {
	Op     core.CircuitOp
	A, B   int
	Out    int
	Stream uint64
	Level  int
}

// Stats counts what each optimization pass did.
type Stats struct {
	// GatesIn is the source netlist's gate count, assigns included.
	GatesIn int `json:"gates_in"`
	// Assigns is how many source gates were pure wiring (CircAssign),
	// dissolved by copy propagation. They cost nothing in either the
	// serial or the planned evaluator.
	Assigns int `json:"assigns"`
	// Folded is how many gates constant folding removed.
	Folded int `json:"folded"`
	// Dupes is how many gates CSE merged into an earlier twin.
	Dupes int `json:"dupes"`
	// Dead is how many gates dead-wire elimination dropped.
	Dead int `json:"dead"`
	// GatesOut is the surviving gate count — the activations one
	// evaluation actually pays for.
	GatesOut int `json:"gates_out"`
	// Levels is the plan's depth; MaxWidth the widest level — the
	// available intra-circuit parallelism.
	Levels   int `json:"levels"`
	MaxWidth int `json:"max_width"`
}

// Eliminated returns the total number of gate activations the plan
// saves per evaluation versus the unoptimized serial walk.
func (s Stats) Eliminated() int { return s.Folded + s.Dupes + s.Dead }

// Plan is an optimized, leveled execution schedule for one netlist.
// The value array an evaluation works over is laid out as
// [inputs][const 0][const 1][gate outputs]; NewValues builds it.
type Plan struct {
	NumInputs int
	// Slots is the value-array length.
	Slots int
	Gates []PlanGate
	// Levels holds indices into Gates grouped by topological level;
	// all gates of one level are data-independent.
	Levels [][]int
	// Outputs maps each source-netlist output to its value-array slot
	// (which may be an input slot or a constant slot after folding).
	Outputs []int
	// Fingerprint is the content address of (source netlist, options):
	// the plan-cache key. See Fingerprint.
	Fingerprint string
	Stats       Stats
}

// NewValues builds the evaluation value array with the inputs and the
// two constant slots filled in.
func (p *Plan) NewValues(inputs []int) ([]int, error) {
	if len(inputs) != p.NumInputs {
		return nil, fmt.Errorf("circopt: plan wants %d inputs, got %d", p.NumInputs, len(inputs))
	}
	vals := make([]int, p.Slots)
	for i, v := range inputs {
		vals[i] = v & 1
	}
	vals[p.NumInputs] = 0
	vals[p.NumInputs+1] = 1
	return vals, nil
}

// Golden evaluates the plan architecturally (no weird gates) — the
// reference the circuit job type and tests compare weird outputs
// against.
func (p *Plan) Golden(inputs []int) ([]int, error) {
	vals, err := p.NewValues(inputs)
	if err != nil {
		return nil, err
	}
	for _, g := range p.Gates {
		switch g.Op {
		case core.CircAnd:
			vals[g.Out] = vals[g.A] & vals[g.B]
		case core.CircOr:
			vals[g.Out] = vals[g.A] | vals[g.B]
		case core.CircNot:
			vals[g.Out] = 1 - vals[g.A]&1
		default:
			return nil, fmt.Errorf("circopt: plan holds unexpected op %v", g.Op)
		}
	}
	outs := make([]int, len(p.Outputs))
	for i, slot := range p.Outputs {
		outs[i] = vals[slot]
	}
	return outs, nil
}

// Value-number hashing: FNV-1a over tagged little-endian words. The
// tag keeps inputs, constants and gates in disjoint id spaces.
func vnHash(parts ...uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], p)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func vnInput(i int) uint64   { return vnHash(1, uint64(i)) }
func vnConst(bit int) uint64 { return vnHash(2, uint64(bit)) }
func vnGate(op core.CircuitOp, a, b uint64) uint64 {
	return vnHash(3, uint64(op), a, b)
}

// valDesc is the resolved value of one source wire during analysis.
type valDesc struct {
	kind int // 0 input, 1 const, 2 gate
	bit  int // const value
	slot int // value-array slot carrying the value
	vn   uint64
}

const (
	valInput = iota
	valConst
	valGate
)

// protoGate is a gate class before dead-code elimination.
type protoGate struct {
	op   core.CircuitOp
	a, b int // slots (pre-DCE numbering)
	vn   uint64
}

// analysis is the shared value-numbering pass behind Optimize and
// Unoptimized.
type analysis struct {
	spec    *core.CircuitSpec
	desc    []valDesc // per source wire
	protos  []protoGate
	classes map[uint64]int // vn -> proto index
	streams []uint64       // per source gate; 0 for assigns and folded gates
	stats   Stats
}

func (an *analysis) constDesc(bit int) valDesc {
	n := an.spec.NumInputs
	slot := n
	if bit&1 == 1 {
		slot = n + 1
	}
	return valDesc{kind: valConst, bit: bit & 1, slot: slot, vn: vnConst(bit & 1)}
}

// newGate interns a gate class for (op, a, b), merging structural
// duplicates (CSE). Hash collisions — two distinct classes landing on
// one value number — are resolved by deterministic linear probing, so
// a collision can never merge non-identical gates.
func (an *analysis) newGate(op core.CircuitOp, a, b valDesc) valDesc {
	n := an.spec.NumInputs
	vn := vnGate(op, a.vn, b.vn)
	for {
		idx, ok := an.classes[vn]
		if !ok {
			break
		}
		p := an.protos[idx]
		if p.op == op && p.a == a.slot && p.b == b.slot {
			an.stats.Dupes++
			return valDesc{kind: valGate, slot: n + 2 + idx, vn: p.vn}
		}
		vn++
	}
	an.protos = append(an.protos, protoGate{op: op, a: a.slot, b: b.slot, vn: vn})
	an.classes[vn] = len(an.protos) - 1
	return valDesc{kind: valGate, slot: n + 2 + len(an.protos) - 1, vn: vn}
}

// analyze runs folding + copy propagation + CSE over the netlist.
func analyze(spec *core.CircuitSpec, opts Options) (*analysis, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("circopt: %w", err)
	}
	n := spec.NumInputs
	for w, b := range opts.Bind {
		if int(w) < 0 || int(w) >= n {
			return nil, fmt.Errorf("circopt: bind of non-input wire %d", w)
		}
		if b != 0 && b != 1 {
			return nil, fmt.Errorf("circopt: bind of wire %d to non-bit %d", w, b)
		}
	}
	an := &analysis{
		spec:    spec,
		desc:    make([]valDesc, spec.NumWires()),
		classes: make(map[uint64]int),
		streams: make([]uint64, len(spec.Gates)),
		stats:   Stats{GatesIn: len(spec.Gates)},
	}
	for i := 0; i < n; i++ {
		if b, ok := opts.Bind[core.WireID(i)]; ok {
			an.desc[i] = an.constDesc(b)
		} else {
			an.desc[i] = valDesc{kind: valInput, slot: i, vn: vnInput(i)}
		}
	}
	for gi, g := range spec.Gates {
		a := an.desc[g.A]
		var out valDesc
		switch g.Op {
		case core.CircAssign:
			an.stats.Assigns++
			out = a
		case core.CircNot:
			if a.kind == valConst {
				an.stats.Folded++
				out = an.constDesc(1 - a.bit)
			} else {
				out = an.newGate(core.CircNot, a, valDesc{slot: -1})
			}
		case core.CircAnd, core.CircOr:
			b := an.desc[g.B]
			out = an.foldAndOr(g.Op, a, b)
		default:
			return nil, fmt.Errorf("circopt: gate %d has unknown op %v", gi, g.Op)
		}
		if out.kind == valGate {
			an.streams[gi] = out.vn
		}
		an.desc[g.Out] = out
	}
	return an, nil
}

// foldAndOr applies the AND/OR constant-folding rules, falling back to
// interning a real gate.
func (an *analysis) foldAndOr(op core.CircuitOp, a, b valDesc) valDesc {
	if a.kind == valConst && b.kind == valConst {
		an.stats.Folded++
		if op == core.CircAnd {
			return an.constDesc(a.bit & b.bit)
		}
		return an.constDesc(a.bit | b.bit)
	}
	if a.kind == valConst || b.kind == valConst {
		c, x := a, b
		if b.kind == valConst {
			c, x = b, a
		}
		an.stats.Folded++
		switch {
		case op == core.CircAnd && c.bit == 0:
			return an.constDesc(0)
		case op == core.CircAnd && c.bit == 1:
			return x
		case op == core.CircOr && c.bit == 1:
			return an.constDesc(1)
		default: // OR with 0
			return x
		}
	}
	return an.newGate(op, a, b)
}

// Optimize compiles a netlist into an optimized, leveled plan.
func Optimize(spec *core.CircuitSpec, opts Options) (*Plan, error) {
	an, err := analyze(spec, opts)
	if err != nil {
		return nil, err
	}
	n := spec.NumInputs

	// Dead-wire elimination: keep only gate classes transitively
	// reachable from an output slot.
	live := make([]bool, len(an.protos))
	var mark func(slot int)
	mark = func(slot int) {
		if slot < n+2 {
			return // input or constant
		}
		idx := slot - n - 2
		if live[idx] {
			return
		}
		live[idx] = true
		mark(an.protos[idx].a)
		if an.protos[idx].b >= 0 {
			mark(an.protos[idx].b)
		}
	}
	for _, w := range spec.Outputs {
		mark(an.desc[w].slot)
	}

	// Renumber surviving gates (stable order) and remap slots.
	remap := make([]int, len(an.protos))
	kept := 0
	for i := range an.protos {
		if live[i] {
			remap[i] = kept
			kept++
		} else {
			remap[i] = -1
			an.stats.Dead++
		}
	}
	mapSlot := func(slot int) int {
		if slot < n+2 {
			return slot
		}
		return n + 2 + remap[slot-n-2]
	}

	plan := &Plan{
		NumInputs: n,
		Slots:     n + 2 + kept,
		Gates:     make([]PlanGate, 0, kept),
	}
	for i, p := range an.protos {
		if !live[i] {
			continue
		}
		g := PlanGate{
			Op:     p.op,
			A:      mapSlot(p.a),
			B:      -1,
			Out:    n + 2 + remap[i],
			Stream: p.vn,
		}
		if p.b >= 0 {
			g.B = mapSlot(p.b)
		}
		plan.Gates = append(plan.Gates, g)
	}
	for _, w := range spec.Outputs {
		plan.Outputs = append(plan.Outputs, mapSlot(an.desc[w].slot))
	}
	an.stats.GatesOut = kept
	plan.Stats = an.stats
	plan.level()
	plan.Fingerprint, err = Fingerprint(spec, opts)
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// Unoptimized builds the plan of the netlist as written: every
// non-assign source gate in source order, each carrying its value-
// number stream, with operand and output slots resolved through the
// assigns. It does no folding, CSE or dead-wire elimination, so an
// evaluation pays for every source gate; duplicates share a stream,
// which keeps it byte-aligned with the optimized plan of the same
// netlist (the merged twin would have drawn the same noise and
// produced the same bit).
func Unoptimized(spec *core.CircuitSpec) (*Plan, error) {
	plan, err := sourcePlan(spec)
	if err != nil {
		return nil, err
	}
	plan.level()
	if plan.Fingerprint, err = Fingerprint(spec, Options{}); err != nil {
		return nil, err
	}
	return plan, nil
}

// sourcePlan is Unoptimized without the leveling and the fingerprint:
// everything a serial walk (EvalPlan) reads.
func sourcePlan(spec *core.CircuitSpec) (*Plan, error) {
	an, err := analyze(spec, Options{})
	if err != nil {
		return nil, err
	}
	n := spec.NumInputs
	slot := make([]int, spec.NumWires())
	for i := 0; i < n; i++ {
		slot[i] = i
	}
	plan := &Plan{NumInputs: n, Gates: make([]PlanGate, 0, len(spec.Gates)-an.stats.Assigns)}
	for gi, g := range spec.Gates {
		if g.Op == core.CircAssign {
			slot[g.Out] = slot[g.A]
			continue
		}
		pg := PlanGate{Op: g.Op, A: slot[g.A], B: -1, Out: n + 2 + len(plan.Gates), Stream: an.streams[gi]}
		if g.Op != core.CircNot {
			pg.B = slot[g.B]
		}
		slot[g.Out] = pg.Out
		plan.Gates = append(plan.Gates, pg)
	}
	plan.Slots = n + 2 + len(plan.Gates)
	plan.Outputs = make([]int, len(spec.Outputs))
	for i, w := range spec.Outputs {
		plan.Outputs[i] = slot[w]
	}
	plan.Stats = Stats{GatesIn: len(spec.Gates), Assigns: an.stats.Assigns, GatesOut: len(plan.Gates)}
	return plan, nil
}

// level assigns every gate its topological level and fills Levels and
// the Levels/MaxWidth stats. Inputs and constants sit at level 0; a
// gate sits one past its deepest operand. Gates are in topological
// order, so operand levels are always already known.
func (p *Plan) level() {
	level := make([]int, p.Slots)
	maxLevel := 0
	for i := range p.Gates {
		g := &p.Gates[i]
		lvl := level[g.A] + 1
		if g.B >= 0 && level[g.B]+1 > lvl {
			lvl = level[g.B] + 1
		}
		g.Level = lvl
		level[g.Out] = lvl
		maxLevel = max(maxLevel, lvl)
	}
	p.Levels = make([][]int, maxLevel)
	for i, g := range p.Gates {
		p.Levels[g.Level-1] = append(p.Levels[g.Level-1], i)
	}
	p.Stats.Levels = maxLevel
	for _, lv := range p.Levels {
		p.Stats.MaxWidth = max(p.Stats.MaxWidth, len(lv))
	}
}
