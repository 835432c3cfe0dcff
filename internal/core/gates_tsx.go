package core

import (
	"fmt"

	"uwm/internal/isa"
	"uwm/internal/mem"
)

// The TSX gate family (paper §4, Figure 3). Each gate's fire section is
// a transactional region that immediately divides by zero; the fault
// aborts the transaction (rolling back all architectural effects) but
// the pipeline keeps executing the following instructions transiently
// for a bounded window. Those instructions are dependent load chains
// over DC-WRs:
//
//	ASSIGN  out := a        load *a, then dereference (*a + &out)
//	AND     out := a & b    the chain needs both operands cached to
//	                        finish inside the window
//	OR      out := a | b    two independent assign chains
//	AND_OR  two outputs     Figure 3 verbatim: q0 := a&b, q1 := a|b
//	NOT     out := !a       out starts cached; a dependent eviction set
//	                        pushes it out when a is cached
//	XOR     out := a ^ b    §4.1: AND_OR + NOT + AND chained through
//	                        three transactions with no architectural
//	                        intermediate values — a weird circuit
//
// Unlike the BP family there is no training: TSX gates run orders of
// magnitude faster (Table 2) and compose into contiguous circuits
// because inputs and outputs are all DC-WRs (§4's two requirements).
//
// Inputs are written architecturally (touch or flush a line); outputs
// are read with a timed load inside a transaction of their own, so a
// debugger observing the read aborts it and destroys the value (§4).

// TSXGate is a weird gate of the transactional family.
type TSXGate struct {
	gateBase
	outputs int
	ins     []mem.Symbol
	outs    []mem.Symbol
	truth   func(in, out []int)
	// setEntries[i][b] is the entry point that writes bit b to input
	// i, resolved when the gate is built so activations never look up
	// a label.
	setEntries [][2]int
	// deltas receives the read latencies of Run, which returns only
	// the bits.
	deltas []int64
}

// Outputs returns the number of logical outputs.
func (g *TSXGate) Outputs() int { return g.outputs }

// InputSymbol returns the DC-WR symbol of input i, letting circuits
// alias one gate's output line to another gate's input.
func (g *TSXGate) InputSymbol(i int) mem.Symbol { return g.ins[i] }

// OutputSymbol returns the DC-WR symbol of output i.
func (g *TSXGate) OutputSymbol(i int) mem.Symbol { return g.outs[i] }

// Golden returns the reference truth values for the inputs.
func (g *TSXGate) Golden(in []int) []int {
	out := make([]int, g.outputs)
	g.truth(in, out)
	return out
}

// Truth writes the reference truth values into out.
func (g *TSXGate) Truth(in, out []int) { g.truth(in, out) }

// WriteInput sets input i's DC-WR to the given bit architecturally
// (touch or flush), without firing the gate.
func (g *TSXGate) WriteInput(i, bit int) error {
	sp := g.m.BeginSpan(SpanWriteInput)
	err := g.m.run(g.prog, g.setEntries[i][bit&1])
	g.m.EndSpan(sp)
	return err
}

// Prep resets the gate's output registers (flushing plain outputs,
// pre-caching eviction targets) without firing.
func (g *TSXGate) Prep() error {
	sp := g.m.BeginSpan(SpanPrep)
	err := g.m.run(g.prog, g.prep)
	g.m.EndSpan(sp)
	return err
}

// Fire executes the weird circuit once: inputs and outputs are whatever
// the cache currently holds. Use WriteInput/Prep first, or compose with
// other gates' outputs.
func (g *TSXGate) Fire() error {
	sp := g.m.BeginSpan(SpanFire)
	g.fires.Inc()
	for _, in := range g.ins {
		g.m.perturbData(in)
	}
	if err := g.m.run(g.prog, g.fire); err != nil {
		g.m.EndSpan(sp)
		return err
	}
	for _, out := range g.outs {
		g.m.perturbData(out)
	}
	g.m.EndSpan(sp)
	return nil
}

// ReadOutputs performs the transactional timed read of every output and
// returns the logic values and raw latencies.
func (g *TSXGate) ReadOutputs() ([]int, []int64, error) {
	bits, deltas := make([]int, g.outputs), make([]int64, g.outputs)
	if err := g.readInto(bits, deltas); err != nil {
		return nil, nil, err
	}
	return bits, deltas, nil
}

// readInto is ReadOutputs writing into caller-owned slices.
func (g *TSXGate) readInto(bits []int, deltas []int64) error {
	sp := g.m.BeginSpan(SpanRead)
	defer g.m.EndSpan(sp)
	if err := g.m.run(g.prog, g.read); err != nil {
		return err
	}
	for i := 0; i < g.outputs; i++ {
		lo := isa.Reg(uint8(isa.R10) + uint8(2*i))
		hi := isa.Reg(uint8(isa.R10) + uint8(2*i+2))
		d := int64(g.m.cpu.Reg(hi) - g.m.cpu.Reg(lo))
		deltas[i] = d
		bits[i] = g.m.ToBit(d)
		g.readLat.Observe(float64(d))
		g.emitTimedRead(i, bits[i], d, g.outs[i].Addr)
	}
	return nil
}

// Run performs a complete activation: write inputs, reset outputs,
// fire, read. It returns the output bits, the only allocation.
func (g *TSXGate) Run(in ...int) ([]int, error) {
	bits := make([]int, g.outputs)
	if err := g.Activate(in, bits, g.deltas); err != nil {
		return nil, err
	}
	return bits, nil
}

// RunTimed is Run returning the measured read latencies as well — the
// raw data behind Tables 6 and 7.
func (g *TSXGate) RunTimed(in ...int) ([]int, []int64, error) {
	bits, deltas := make([]int, g.outputs), make([]int64, g.outputs)
	if err := g.Activate(in, bits, deltas); err != nil {
		return nil, nil, err
	}
	return bits, deltas, nil
}

// Activate is RunTimed writing into caller-owned slices.
func (g *TSXGate) Activate(in, bits []int, deltas []int64) error {
	if err := g.checkArity(in); err != nil {
		return err
	}
	sp := g.m.BeginSpan(g.span)
	defer g.m.EndSpan(sp)
	for i, bit := range in {
		if err := g.WriteInput(i, bit); err != nil {
			return err
		}
	}
	if err := g.Prep(); err != nil {
		return err
	}
	if err := g.Fire(); err != nil {
		return err
	}
	return g.readInto(bits, deltas)
}

// tsxBuild bundles the builder state shared by the constructors.
type tsxBuild struct {
	b    *isa.Builder
	m    *Machine
	tag  string
	ins  []mem.Symbol
	outs []mem.Symbol
}

// newTsxBuild allocates symbols and emits the shared entries: per-input
// setters and the transactional read of the outputs.
func newTsxBuild(m *Machine, name string, nIn, nOut int) *tsxBuild {
	id := m.nextGateID()
	tag := fmt.Sprintf("g%d.%s", id, name)
	t := &tsxBuild{b: isa.NewBuilder(m.codeRegion()), m: m, tag: tag}
	for i := 0; i < nIn; i++ {
		t.ins = append(t.ins, m.layout.AllocLine(fmt.Sprintf("%s.in%d", tag, i)))
	}
	for i := 0; i < nOut; i++ {
		t.outs = append(t.outs, m.layout.AllocLine(fmt.Sprintf("%s.out%d", tag, i)))
	}
	for i, in := range t.ins {
		t.b.Label(fmt.Sprintf("setin%d_1", i)).Load(isa.R3, in, 0).Fence().Halt()
		t.b.Label(fmt.Sprintf("setin%d_0", i)).Clflush(in, 0).Fence().Halt()
	}
	return t
}

// emitRead emits the transactional timed read of all outputs. Timestamps
// land in R10, R12, R14, ... so output i's latency is R(10+2i+2)-R(10+2i).
// If the read transaction aborts (e.g. an observer single-steps it), the
// handler reports slow reads — every output collapses to 0, the paper's
// anti-debug behaviour.
func (t *tsxBuild) emitRead() {
	t.b.Label("read")
	// Settle: give in-flight transient fills time to land before the
	// timed load, so a hot output line reads at L1 latency (the paper's
	// hit medians) rather than at the tail of its own miss.
	for i := 0; i < 64; i++ {
		t.b.Nop()
	}
	t.b.XBegin("read_abort")
	reg := uint8(isa.R10)
	t.b.Rdtsc(isa.Reg(reg))
	for _, out := range t.outs {
		t.b.Load(isa.Reg(reg+1), out, 0)
		t.b.Rdtsc(isa.Reg(reg + 2))
		reg += 2
	}
	t.b.XEnd().Halt()
	t.b.Label("read_abort")
	reg = uint8(isa.R10)
	t.b.MovI(isa.Reg(reg), 0)
	for i := range t.outs {
		// Strictly increasing timestamps so every per-output delta is
		// far above the threshold: an aborted read yields all zeros.
		t.b.MovI(isa.Reg(reg+2), int64(i+1)<<20)
		reg += 2
	}
	t.b.Halt()
}

// emitFault emits the transaction prologue: enter the region and divide
// by zero. Everything emitted after it runs only transiently.
func (t *tsxBuild) emitFault(handler string) {
	t.b.XBegin(handler).
		MovI(isa.R2, 0).
		MovI(isa.R3, 7).
		Div(isa.R3, isa.R3, isa.R2)
}

// finish builds the program, warms it up and wraps it in a TSXGate.
// The warmup run-through mirrors the paper's skelly, which maps and
// "initializes at run time" each gate's dedicated regions (§6.2): a
// transient window can only execute code that is already in the
// instruction cache, so the very first fire of a cold gate would
// starve its own chain.
func (t *tsxBuild) finish(name string, arity, outputs int, truth func(in, out []int)) (*TSXGate, error) {
	prog, err := t.b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: building %s: %w", name, err)
	}
	if prog.End() > prog.Base+codeRegionSize {
		return nil, fmt.Errorf("core: gate %s overflows its code region", name)
	}
	set := make([][2]int, len(t.ins))
	for i := range set {
		set[i] = [2]int{prog.MustEntry(fmt.Sprintf("setin%d_0", i)), prog.MustEntry(fmt.Sprintf("setin%d_1", i))}
	}
	g := &TSXGate{
		gateBase: newGateBase(t.m, name, "tsx", arity, prog),
		outputs:  outputs, ins: t.ins, outs: t.outs, truth: truth, setEntries: set,
		deltas: make([]int64, outputs),
	}
	for _, entry := range []string{"prep", "fire", "read", "prep"} {
		if err := t.m.run(prog, prog.MustEntry(entry)); err != nil {
			return nil, fmt.Errorf("core: warming %s/%s: %w", name, entry, err)
		}
	}
	return g, nil
}

// NewTSXAssign builds the transactional assignment gate out := a, the
// pointer-dereference primitive of §4: inside the post-fault window,
// *(*a + &out) reaches the output line only if *a returns in time.
func NewTSXAssign(m *Machine) (*TSXGate, error) {
	t := newTsxBuild(m, "TSX_ASSIGN", 1, 1)
	t.b.Label("prep").Clflush(t.outs[0], 0).Fence().Halt()
	t.b.Label("fire")
	t.emitFault("h0")
	t.b.Load(isa.R4, t.ins[0], 0).
		LoadR(isa.R5, isa.R4, int64(t.outs[0].Addr)).
		XEnd()
	t.b.Label("h0").Halt()
	t.emitRead()
	return t.finish("TSX_ASSIGN", 1, 1, func(in, out []int) { out[0] = in[0] })
}

// NewTSXAnd builds the transactional AND: a single dependent chain
// *(*a + *b + &out) that only completes inside the window when both
// input lines are cached (§4's i2;i3;i4 construction).
func NewTSXAnd(m *Machine) (*TSXGate, error) {
	t := newTsxBuild(m, "TSX_AND", 2, 1)
	t.b.Label("prep").Clflush(t.outs[0], 0).Fence().Halt()
	t.b.Label("fire")
	t.emitFault("h0")
	t.b.Load(isa.R4, t.ins[0], 0).
		AddM(isa.R4, t.ins[1], 0).
		LoadR(isa.R5, isa.R4, int64(t.outs[0].Addr)).
		XEnd()
	t.b.Label("h0").Halt()
	t.emitRead()
	return t.finish("TSX_AND", 2, 1, func(in, out []int) { out[0] = in[0] & in[1] })
}

// NewTSXOr builds the transactional OR: two independent assign chains
// into the same output line.
func NewTSXOr(m *Machine) (*TSXGate, error) {
	t := newTsxBuild(m, "TSX_OR", 2, 1)
	t.b.Label("prep").Clflush(t.outs[0], 0).Fence().Halt()
	t.b.Label("fire")
	t.emitFault("h0")
	t.b.Load(isa.R4, t.ins[0], 0).
		LoadR(isa.R5, isa.R4, int64(t.outs[0].Addr)).
		Load(isa.R6, t.ins[1], 0).
		LoadR(isa.R7, isa.R6, int64(t.outs[0].Addr)).
		XEnd()
	t.b.Label("h0").Halt()
	t.emitRead()
	return t.finish("TSX_OR", 2, 1, func(in, out []int) { out[0] = in[0] | in[1] })
}

// NewTSXAndOr builds the Figure 3 circuit verbatim: one window computes
// q0 := a & b into output 0 and q1 := a | b into output 1.
func NewTSXAndOr(m *Machine) (*TSXGate, error) {
	t := newTsxBuild(m, "TSX_AND_OR", 2, 2)
	t.b.Label("prep").
		Clflush(t.outs[0], 0).
		Clflush(t.outs[1], 0).
		Fence().
		Halt()
	t.b.Label("fire")
	t.emitFault("h0")
	// d3 := d0 ; d3 := d1 ; d2 := d0 & d1 (paper lines 10–12). The
	// AND chain reuses both loads through an address add, so it only
	// issues when both values arrived inside the window.
	t.b.Load(isa.R4, t.ins[0], 0).
		LoadR(isa.R5, isa.R4, int64(t.outs[1].Addr)).
		Load(isa.R6, t.ins[1], 0).
		LoadR(isa.R7, isa.R6, int64(t.outs[1].Addr)).
		Add(isa.R8, isa.R4, isa.R6).
		LoadR(isa.R9, isa.R8, int64(t.outs[0].Addr)).
		XEnd()
	t.b.Label("h0").Halt()
	t.emitRead()
	return t.finish("TSX_AND_OR", 2, 2, func(in, out []int) {
		out[0], out[1] = in[0]&in[1], in[0]|in[1]
	})
}

// NewTSXNot builds the transactional NOT: the output line starts
// cached, and a dependent eviction set — reachable only through *a —
// pushes it out of the hierarchy when a is 1.
func NewTSXNot(m *Machine) (*TSXGate, error) {
	t := newTsxBuild(m, "TSX_NOT", 1, 1)
	ways := m.cpu.Hierarchy().L2().Config().Ways
	ev := m.evictBase(t.outs[0], ways, t.tag)
	// prep pre-caches the eviction target and flushes the whole
	// conflict set, so the transient fills wrap the set and evict the
	// target deterministically.
	t.b.Label("prep").Load(isa.R11, t.outs[0], 0)
	for _, e := range ev {
		t.b.Clflush(e, 0)
	}
	t.b.Fence().Halt()
	t.b.Label("fire")
	t.emitFault("h0")
	t.b.Load(isa.R4, t.ins[0], 0)
	for i, e := range ev {
		t.b.LoadR(isa.Reg(uint8(isa.R5)+uint8(i%8)), isa.R4, int64(e.Addr))
	}
	t.b.XEnd()
	t.b.Label("h0").Halt()
	t.emitRead()
	return t.finish("TSX_NOT", 1, 1, func(in, out []int) { out[0] = 1 - in[0] })
}

// NewTSXXor builds the §4.1 weird circuit: three transactions chained
// through their abort handlers compute t_or := a|b and t_and := a&b,
// then t_not := !t_and by dependent eviction, then out := t_or & t_not —
// with every intermediate value living only in the data cache. This is
// the XOR the weird obfuscation system's one-time-pad uses.
func NewTSXXor(m *Machine) (*TSXGate, error) {
	t := newTsxBuild(m, "TSX_XOR", 2, 1)
	tAnd := m.layout.AllocLine(t.tag + ".tand")
	tOr := m.layout.AllocLine(t.tag + ".tor")
	tNot := m.layout.AllocLine(t.tag + ".tnot")
	ways := m.cpu.Hierarchy().L2().Config().Ways
	ev := m.evictBase(tNot, ways, t.tag)

	t.b.Label("prep").
		Clflush(t.outs[0], 0).
		Clflush(tAnd, 0).
		Clflush(tOr, 0).
		Load(isa.R11, tNot, 0) // eviction target starts cached
	for _, e := range ev {
		t.b.Clflush(e, 0) // cold conflict set: eviction is deterministic
	}
	t.b.Fence().Halt()

	t.b.Label("fire")
	// Window 1: AND_OR — t_and := a&b, t_or := a|b.
	t.emitFault("h1")
	t.b.Load(isa.R4, t.ins[0], 0).
		LoadR(isa.R5, isa.R4, int64(tOr.Addr)).
		Load(isa.R6, t.ins[1], 0).
		LoadR(isa.R7, isa.R6, int64(tOr.Addr)).
		Add(isa.R8, isa.R4, isa.R6).
		LoadR(isa.R9, isa.R8, int64(tAnd.Addr)).
		XEnd()
	t.b.Label("h1")
	// Window 2: NOT — evict t_not when t_and is cached.
	t.emitFault("h2")
	t.b.Load(isa.R4, tAnd, 0)
	for i, e := range ev {
		t.b.LoadR(isa.Reg(uint8(isa.R5)+uint8(i%8)), isa.R4, int64(e.Addr))
	}
	t.b.XEnd()
	t.b.Label("h2")
	// Window 3: AND — out := t_or & t_not.
	t.emitFault("h3")
	t.b.Load(isa.R4, tOr, 0).
		AddM(isa.R4, tNot, 0).
		LoadR(isa.R5, isa.R4, int64(t.outs[0].Addr)).
		XEnd()
	t.b.Label("h3").Halt()
	t.emitRead()
	return t.finish("TSX_XOR", 2, 1, func(in, out []int) { out[0] = in[0] ^ in[1] })
}
