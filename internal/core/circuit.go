package core

import (
	"fmt"

	"uwm/internal/isa"
	"uwm/internal/mem"
)

// Weird circuits (paper §4): ensembles of TSX gates executing as a
// chain of transactions inside one program, where every intermediate
// value lives only in the data cache. A circuit is described as a
// netlist (CircuitSpec) over single-assignment wires and compiled into
// a multi-entry program:
//
//	setin<i>_<b> — write input wire i architecturally (touch/flush)
//	prep         — reset every non-input wire (flush; NOT targets are
//	               pre-cached instead, being eviction targets)
//	fire         — one transaction per gate, chained through abort
//	               handlers; no architectural value is read or written
//	read<k>      — transactional timed read of output k
//
// The two §4 requirements hold by construction: gate activations are
// contiguous (each transaction leaves only cache state behind) and all
// values live in registers of one type (DC-WRs), so outputs feed inputs
// directly.

// WireID names a circuit wire. Wires 0..NumInputs-1 are the circuit's
// inputs; every gate defines one new wire.
type WireID int

// CircuitOp is a netlist gate type.
type CircuitOp int

// Netlist gate types. XOR is not primitive — CircuitSpec.Xor
// synthesizes it from OR, AND and NOT, as §4.1 does.
const (
	CircAssign CircuitOp = iota // out = a
	CircAnd                     // out = a & b
	CircOr                      // out = a | b
	CircNot                     // out = !a
)

// String names the op.
func (op CircuitOp) String() string {
	switch op {
	case CircAssign:
		return "assign"
	case CircAnd:
		return "and"
	case CircOr:
		return "or"
	case CircNot:
		return "not"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// CircuitGate is one netlist node producing wire Out.
type CircuitGate struct {
	Op   CircuitOp
	A, B WireID // B unused for ASSIGN/NOT
	Out  WireID
}

// CircuitSpec is a boolean netlist in topological order.
type CircuitSpec struct {
	NumInputs int
	Gates     []CircuitGate
	Outputs   []WireID
}

// NewCircuitSpec starts a netlist with the given input count.
func NewCircuitSpec(numInputs int) *CircuitSpec {
	return &CircuitSpec{NumInputs: numInputs}
}

// nextWire returns the next fresh wire id.
func (s *CircuitSpec) nextWire() WireID {
	return WireID(s.NumInputs + len(s.Gates))
}

// Assign adds out = a and returns the new wire.
func (s *CircuitSpec) Assign(a WireID) WireID {
	out := s.nextWire()
	s.Gates = append(s.Gates, CircuitGate{Op: CircAssign, A: a, Out: out})
	return out
}

// And adds out = a & b and returns the new wire.
func (s *CircuitSpec) And(a, b WireID) WireID {
	out := s.nextWire()
	s.Gates = append(s.Gates, CircuitGate{Op: CircAnd, A: a, B: b, Out: out})
	return out
}

// Or adds out = a | b and returns the new wire.
func (s *CircuitSpec) Or(a, b WireID) WireID {
	out := s.nextWire()
	s.Gates = append(s.Gates, CircuitGate{Op: CircOr, A: a, B: b, Out: out})
	return out
}

// Not adds out = !a and returns the new wire.
func (s *CircuitSpec) Not(a WireID) WireID {
	out := s.nextWire()
	s.Gates = append(s.Gates, CircuitGate{Op: CircNot, A: a, Out: out})
	return out
}

// Xor synthesizes a ^ b = (a|b) & !(a&b) — four gates, the §4.1
// decomposition — and returns the result wire.
func (s *CircuitSpec) Xor(a, b WireID) WireID {
	or := s.Or(a, b)
	nand := s.Not(s.And(a, b))
	return s.And(or, nand)
}

// Output marks a wire as a circuit output.
func (s *CircuitSpec) Output(w WireID) { s.Outputs = append(s.Outputs, w) }

// NumWires returns the total wire count.
func (s *CircuitSpec) NumWires() int { return s.NumInputs + len(s.Gates) }

// Validate checks single assignment, topological order and output
// definedness.
func (s *CircuitSpec) Validate() error {
	if s.NumInputs < 0 {
		return fmt.Errorf("core: negative input count")
	}
	defined := s.NumInputs
	for i, g := range s.Gates {
		if int(g.A) >= defined || g.A < 0 {
			return fmt.Errorf("core: gate %d reads undefined wire %d", i, g.A)
		}
		if (g.Op == CircAnd || g.Op == CircOr) && (int(g.B) >= defined || g.B < 0) {
			return fmt.Errorf("core: gate %d reads undefined wire %d", i, g.B)
		}
		if int(g.Out) != defined {
			return fmt.Errorf("core: gate %d defines wire %d, want %d", i, g.Out, defined)
		}
		defined++
	}
	if len(s.Outputs) == 0 {
		return fmt.Errorf("core: circuit has no outputs")
	}
	for _, o := range s.Outputs {
		if int(o) >= defined || o < 0 {
			return fmt.Errorf("core: output wire %d undefined", o)
		}
	}
	return nil
}

// Eval computes the circuit's reference truth value architecturally.
func (s *CircuitSpec) Eval(inputs []int) ([]int, error) {
	if len(inputs) != s.NumInputs {
		return nil, fmt.Errorf("core: circuit wants %d inputs, got %d", s.NumInputs, len(inputs))
	}
	wires := make([]int, s.NumWires())
	for i, v := range inputs {
		wires[i] = v & 1
	}
	for _, g := range s.Gates {
		switch g.Op {
		case CircAssign:
			wires[g.Out] = wires[g.A]
		case CircAnd:
			wires[g.Out] = wires[g.A] & wires[g.B]
		case CircOr:
			wires[g.Out] = wires[g.A] | wires[g.B]
		case CircNot:
			wires[g.Out] = 1 - wires[g.A]
		}
	}
	out := make([]int, len(s.Outputs))
	for i, w := range s.Outputs {
		out[i] = wires[w]
	}
	return out, nil
}

// Circuit is a compiled weird circuit bound to a machine.
type Circuit struct {
	m    *Machine
	spec CircuitSpec
	prog *isa.Program
	// copies[w] holds one physical DC line per consumer of wire w.
	copies [][]mem.Symbol
	// Entry points, resolved at compile time for the per-run path.
	setEntries  [][2]int
	readEntries []int
	prep, fire  int
}

// MaxFanout bounds how many distinct consumers (gates plus circuit
// outputs) one wire may feed. Fan-out is realized by physical line
// duplication, and each extra copy costs window budget in the producing
// transaction.
const MaxFanout = 4

// use identifies one consumption site of a wire.
type use struct {
	gate int // consuming gate index, or -1 for a circuit output
	out  int // output index when gate == -1
}

// CompileCircuit builds the program realizing spec on m.
//
// The central codegen rule is *fan-out by duplication*: reading a DC-WR
// fills its line (reads are invasive, §3.1), so a wire consumed by two
// different transactions would be poisoned by the first consumer. The
// compiler therefore gives every consumer its own physical line, and
// the producing gate's transient chain fills all copies inside its own
// window — the microarchitectural analogue of a fan-out buffer. Each
// line is consumed exactly once, so the chain of transactions composes
// to any depth with no architectural intermediate values.
func CompileCircuit(m *Machine, spec *CircuitSpec) (*Circuit, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	id := m.nextGateID()
	tag := fmt.Sprintf("g%d.wc", id)

	// Collect each wire's consumption sites.
	uses := make([][]use, spec.NumWires())
	addUse := func(w WireID, u use) { uses[w] = append(uses[w], u) }
	for gi, g := range spec.Gates {
		addUse(g.A, use{gate: gi})
		if g.Op == CircAnd || g.Op == CircOr {
			addUse(g.B, use{gate: gi})
		}
	}
	for oi, w := range spec.Outputs {
		addUse(w, use{gate: -1, out: oi})
	}
	for w, us := range uses {
		if len(us) > MaxFanout {
			return nil, fmt.Errorf("core: wire %d has fan-out %d > %d", w, len(us), MaxFanout)
		}
	}

	// One physical line per use (plus one for dead wires, so every
	// producer has something to write).
	copies := make([][]mem.Symbol, spec.NumWires())
	for w := range copies {
		n := len(uses[w])
		if n == 0 {
			n = 1
		}
		copies[w] = make([]mem.Symbol, n)
		for j := range copies[w] {
			copies[w][j] = m.layout.AllocLine(fmt.Sprintf("%s.w%d.%d", tag, w, j))
		}
	}
	// lineFor returns the copy of w dedicated to consumption site u.
	lineFor := func(w WireID, u use) mem.Symbol {
		for j, cand := range uses[w] {
			if cand == u {
				return copies[w][j]
			}
		}
		panic("core: unregistered wire use")
	}

	// delay is the settle line for the inter-transaction spacing
	// gadget in fire.
	delay := m.layout.AllocLine(tag + ".delay")

	// NOT gates evict their output copies: one eviction set per copy.
	ways := m.cpu.Hierarchy().L2().Config().Ways
	evSets := make(map[mem.Symbol][]mem.Symbol)
	producedByNot := make(map[WireID]bool)
	for gi, g := range spec.Gates {
		if g.Op == CircNot {
			producedByNot[g.Out] = true
			for j, cp := range copies[g.Out] {
				evSets[cp] = m.evictBase(cp, ways, fmt.Sprintf("%s.n%d.%d", tag, gi, j))
			}
		}
	}

	// Emit the program twice: a sizing pass at a placeholder base, then
	// the real pass at an exactly-sized allocation. Exact sizing keeps
	// machines with many circuits inside the conflict-free code space
	// (see codeRegionN).
	emit := func(b *isa.Builder) {
		// Input setters drive every copy of the input wire.
		for i := 0; i < spec.NumInputs; i++ {
			b.Label(fmt.Sprintf("setin%d_1", i))
			for _, cp := range copies[i] {
				b.Load(isa.R3, cp, 0)
			}
			b.Fence().Halt()
			b.Label(fmt.Sprintf("setin%d_0", i))
			for _, cp := range copies[i] {
				b.Clflush(cp, 0)
			}
			b.Fence().Halt()
		}

		// prep: reset every gate-defined copy (pre-cache eviction targets
		// and flush their conflict sets, making NOT evictions independent
		// of leftover recency state).
		b.Label("prep")
		for _, g := range spec.Gates {
			for _, cp := range copies[g.Out] {
				if producedByNot[g.Out] {
					b.Load(isa.R11, cp, 0)
					for _, e := range evSets[cp] {
						b.Clflush(e, 0)
					}
				} else {
					b.Clflush(cp, 0)
				}
			}
		}
		b.Fence().Halt()

		// fire: one transaction per gate, chained through abort handlers.
		b.Label("fire")
		for gi, g := range spec.Gates {
			handler := fmt.Sprintf("h%d", gi)
			if gi > 0 {
				// Space the windows by a full DRAM latency: without
				// this, each stage consumes its predecessor's still-
				// in-flight fill, accumulating ~40 cycles of latency
				// debt per stage until deep chains starve.
				b.Clflush(delay, 0).
					Fence().
					Load(isa.R3, delay, 0).
					Fence()
			}
			b.XBegin(handler).
				MovI(isa.R2, 0).
				MovI(isa.R3, 7).
				Div(isa.R3, isa.R3, isa.R2) // fault: the window opens here
			me := use{gate: gi}
			outCopies := copies[g.Out]
			switch g.Op {
			case CircAssign:
				b.Load(isa.R4, lineFor(g.A, me), 0)
				for j, cp := range outCopies {
					b.LoadR(isa.Reg(uint8(isa.R5)+uint8(j)), isa.R4, int64(cp.Addr))
				}
			case CircAnd:
				b.Load(isa.R4, lineFor(g.A, me), 0).
					AddM(isa.R4, lineFor(g.B, me), 0)
				for j, cp := range outCopies {
					b.LoadR(isa.Reg(uint8(isa.R5)+uint8(j)), isa.R4, int64(cp.Addr))
				}
			case CircOr:
				b.Load(isa.R4, lineFor(g.A, me), 0)
				for j, cp := range outCopies {
					b.LoadR(isa.Reg(uint8(isa.R5)+uint8(j)), isa.R4, int64(cp.Addr))
				}
				b.Load(isa.R10, lineFor(g.B, me), 0)
				for j, cp := range outCopies {
					b.LoadR(isa.Reg(uint8(isa.R11)+uint8(j)), isa.R10, int64(cp.Addr))
				}
			case CircNot:
				b.Load(isa.R4, lineFor(g.A, me), 0)
				n := 0
				for _, cp := range outCopies {
					for _, e := range evSets[cp] {
						// Destination values are never used; rotate
						// through scratch registers.
						b.LoadR(isa.Reg(uint8(isa.R5)+uint8(n%8)), isa.R4, int64(e.Addr))
						n++
					}
				}
			}
			b.XEnd()
			b.Label(handler)
		}
		b.Halt()

		// Per-output transactional timed reads of the output's own copy.
		for k, w := range spec.Outputs {
			b.Label(fmt.Sprintf("read%d", k))
			for i := 0; i < 64; i++ {
				b.Nop() // settle in-flight fills
			}
			abort := fmt.Sprintf("rda%d", k)
			b.XBegin(abort).
				Rdtsc(isa.R10).
				Load(isa.R11, lineFor(w, use{gate: -1, out: k}), 0).
				Rdtsc(isa.R12).
				XEnd().
				Halt()
			b.Label(abort).
				MovI(isa.R10, 0).
				MovI(isa.R12, 1<<20).
				Halt()
		}

	}

	sizer := isa.NewBuilder(0)
	emit(sizer)
	sized, err := sizer.Build()
	if err != nil {
		return nil, fmt.Errorf("core: compiling circuit: %w", err)
	}
	nBytes := len(sized.Code) * isa.InstBytes
	b := isa.NewBuilder(m.codeRegionN(nBytes/codeRegionSize + 1))
	emit(b)
	prog, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: compiling circuit: %w", err)
	}
	c := &Circuit{m: m, spec: *spec, prog: prog, copies: copies,
		prep: prog.MustEntry("prep"), fire: prog.MustEntry("fire")}
	for i := 0; i < spec.NumInputs; i++ {
		c.setEntries = append(c.setEntries, [2]int{
			prog.MustEntry(fmt.Sprintf("setin%d_0", i)), prog.MustEntry(fmt.Sprintf("setin%d_1", i))})
	}
	for k := range spec.Outputs {
		c.readEntries = append(c.readEntries, prog.MustEntry(fmt.Sprintf("read%d", k)))
	}
	// Warm the program: transient windows can only run cached code, so
	// a cold circuit's first fire would starve (skelly's run-time
	// initialization, §6.2).
	warm := []string{"prep", "fire"}
	for k := range spec.Outputs {
		warm = append(warm, fmt.Sprintf("read%d", k))
	}
	warm = append(warm, "prep")
	for _, entry := range warm {
		if _, err := m.run(prog, prog.MustEntry(entry)); err != nil {
			return nil, fmt.Errorf("core: warming circuit/%s: %w", entry, err)
		}
	}
	return c, nil
}

// Spec returns the compiled netlist.
func (c *Circuit) Spec() CircuitSpec { return c.spec }

// Program exposes the compiled program for disassembly and tests.
func (c *Circuit) Program() *isa.Program { return c.prog }

// Transactions returns how many transactional windows one fire spans.
func (c *Circuit) Transactions() int { return len(c.spec.Gates) }

// Run evaluates the circuit on the weird machine: write inputs, reset
// wires, fire the transaction chain, read the outputs.
func (c *Circuit) Run(inputs ...int) ([]int, error) {
	if len(inputs) != c.spec.NumInputs {
		return nil, fmt.Errorf("core: circuit wants %d inputs, got %d", c.spec.NumInputs, len(inputs))
	}
	for i, bit := range inputs {
		if _, err := c.m.run(c.prog, c.setEntries[i][bit&1]); err != nil {
			return nil, err
		}
	}
	if _, err := c.m.run(c.prog, c.prep); err != nil {
		return nil, err
	}
	for i := 0; i < c.spec.NumInputs; i++ {
		for _, cp := range c.copies[i] {
			c.m.perturbData(cp)
		}
	}
	if _, err := c.m.run(c.prog, c.fire); err != nil {
		return nil, err
	}
	out := make([]int, len(c.spec.Outputs))
	for k := range c.spec.Outputs {
		if _, err := c.m.run(c.prog, c.readEntries[k]); err != nil {
			return nil, err
		}
		out[k] = c.m.ToBit(c.m.readDelta())
	}
	return out, nil
}

// Golden evaluates the circuit architecturally for verification.
func (c *Circuit) Golden(inputs []int) []int {
	out, err := c.spec.Eval(inputs)
	if err != nil {
		panic(err) // inputs validated by construction at call sites
	}
	return out
}
