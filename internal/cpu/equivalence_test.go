package cpu_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"testing"

	"uwm/internal/cpu"
	"uwm/internal/isa"
	"uwm/internal/mem"
	"uwm/internal/noise"
)

// refMachine is a sequential interpreter for package isa, written from
// the opcode comments in isa.go alone. It has no caches, no predictor
// and no clock: every instruction takes effect in program order, a
// transactional region either commits at XEND or rolls registers and
// memory back to its XBEGIN, and nothing executes transiently. It lives
// outside package cpu and shares no code with it, so it is an
// independent reference for the simulator's architectural state.
type refMachine struct {
	regs [isa.NumRegs]uint64
	mem  map[mem.Addr]uint64 // non-zero 8-byte words by aligned address
}

// The reference's outcomes. The CPU's own errors are classified into the
// same three: a clean halt, a fault outside a transaction, and any other
// program error.
var (
	errRefFault = errors.New("ref: divide by zero outside a transaction")
	errRefOther = errors.New("ref: program error")
)

func (m *refMachine) read(a mem.Addr) uint64 { return m.mem[a&^7] }

func (m *refMachine) write(a mem.Addr, v uint64) {
	if v == 0 {
		delete(m.mem, a&^7)
		return
	}
	m.mem[a&^7] = v
}

// run executes prog from instruction idx until HALT or a program error,
// committing at most maxSteps instructions.
func (m *refMachine) run(prog *isa.Program, idx, maxSteps int) error {
	type region struct {
		regs  [isa.NumRegs]uint64
		mem   map[mem.Addr]uint64
		abort int
	}
	var txn *region
	// rollback restores the state the open region began with and
	// returns its abort handler.
	rollback := func() int {
		m.regs, m.mem = txn.regs, txn.mem
		h := txn.abort
		txn = nil
		return h
	}
	r := &m.regs
	for steps := 0; steps < maxSteps; steps++ {
		if idx < 0 || idx >= len(prog.Code) {
			return errRefOther
		}
		in := &prog.Code[idx]
		next := idx + 1
		switch in.Op {
		case isa.NOP, isa.FENCE, isa.CLF, isa.CLFL:
			// No architectural effect.
		case isa.HALT:
			if txn != nil {
				return errRefOther
			}
			return nil
		case isa.MOVI:
			r[in.Dst] = uint64(in.Imm)
		case isa.MOV:
			r[in.Dst] = r[in.Src1]
		case isa.LOAD:
			r[in.Dst] = m.read(in.SymAddr + mem.Addr(in.Imm))
		case isa.LOADR:
			r[in.Dst] = m.read(mem.Addr(r[in.Src1]) + mem.Addr(in.Imm))
		case isa.ADDM:
			r[in.Dst] += m.read(in.SymAddr + mem.Addr(in.Imm))
		case isa.STORE:
			m.write(in.SymAddr+mem.Addr(in.Imm), r[in.Src1])
		case isa.STORR:
			m.write(mem.Addr(r[in.Src1])+mem.Addr(in.Imm), r[in.Src2])
		case isa.ADD:
			r[in.Dst] = r[in.Src1] + r[in.Src2]
		case isa.ADDI:
			r[in.Dst] = r[in.Src1] + uint64(in.Imm)
		case isa.SUB:
			r[in.Dst] = r[in.Src1] - r[in.Src2]
		case isa.AND:
			r[in.Dst] = r[in.Src1] & r[in.Src2]
		case isa.OR:
			r[in.Dst] = r[in.Src1] | r[in.Src2]
		case isa.XOR:
			r[in.Dst] = r[in.Src1] ^ r[in.Src2]
		case isa.SHL:
			r[in.Dst] = r[in.Src1] << uint64(in.Imm) // the generator keeps imm in [0, 63]
		case isa.SHR:
			r[in.Dst] = r[in.Src1] >> uint64(in.Imm)
		case isa.MUL:
			r[in.Dst] = r[in.Src1] * r[in.Src2]
		case isa.DIV:
			if r[in.Src2] == 0 {
				if txn == nil {
					return errRefFault
				}
				next = rollback()
				break
			}
			r[in.Dst] = r[in.Src1] / r[in.Src2]
		case isa.BRZ:
			if r[in.Src1] == 0 {
				next = in.TargetIdx
			}
		case isa.BRNZ:
			if r[in.Src1] != 0 {
				next = in.TargetIdx
			}
		case isa.JMP:
			next = in.TargetIdx
		case isa.CALL:
			r[isa.R15] = uint64(in.Addr + isa.InstBytes)
			next = in.TargetIdx
		case isa.RET:
			a := mem.Addr(r[in.Src1])
			if a < prog.Base || a >= prog.End() || (a-prog.Base)%isa.InstBytes != 0 {
				return errRefOther
			}
			next = int((a - prog.Base) / isa.InstBytes)
		case isa.RDTSC:
			r[in.Dst] = 0 // a timestamp: masked in every comparison
		case isa.XBEGIN:
			if txn != nil {
				return errRefOther
			}
			txn = &region{regs: m.regs, mem: maps.Clone(m.mem), abort: in.TargetIdx}
		case isa.XEND:
			if txn == nil {
				return errRefOther
			}
			txn = nil
		case isa.XABORT:
			if txn == nil {
				return errRefOther
			}
			next = rollback()
		default:
			return errRefOther
		}
		idx = next
	}
	return errRefOther
}

// Register roles in generated programs: R0–R13 are general, R14 only
// ever receives RDTSC timestamps (so nothing reads a timing value and
// the register is masked), and R15 is the CALL link register.
const (
	numGeneral = 14
	tscReg     = isa.R14
)

// progGen builds a random program from fuzz bytes. Every choice reads
// one byte; an exhausted input reads zeros, so any input builds.
type progGen struct {
	in    []byte
	b     *isa.Builder
	lines []mem.Symbol
	subs  int
	txns  int
}

// scope says where a block of items sits, which limits what it may
// contain: transactions do not nest, and subroutines neither call (that
// would clobber the link register) nor open transactions.
type scope int

const (
	inMain scope = iota
	inTxn
	inSub
)

func (g *progGen) next() byte {
	if len(g.in) == 0 {
		return 0
	}
	v := g.in[0]
	g.in = g.in[1:]
	return v
}

func (g *progGen) intn(n int) int { return int(g.next()) % n }
func (g *progGen) reg() isa.Reg   { return isa.Reg(g.intn(numGeneral)) }
func (g *progGen) line() mem.Symbol {
	return g.lines[g.intn(len(g.lines))]
}
func (g *progGen) disp() int64 { return int64(8 * g.intn(8)) }

// block emits n items and labels every boundary name_0 … name_n, the
// only targets its forward branches use.
func (g *progGen) block(name string, n int, sc scope) {
	for i := 0; i < n; i++ {
		g.b.Label(fmt.Sprintf("%s_%d", name, i))
		g.item(name, i, n, sc)
	}
	g.b.Label(fmt.Sprintf("%s_%d", name, n))
}

// wordAddr leaves in a the 8-byte offset (x & 7) * 8: a register-derived
// address inside one data line, whatever x holds.
func (g *progGen) wordAddr(a, x isa.Reg) {
	g.b.Shl(a, x, 61).Shr(a, a, 58)
}

func (g *progGen) item(name string, i, n int, sc scope) {
	b := g.b
	switch k := g.intn(24); k {
	case 0, 1, 2, 3, 4:
		d, s1, s2 := g.reg(), g.reg(), g.reg()
		switch g.intn(6) {
		case 0:
			b.Add(d, s1, s2)
		case 1:
			b.Sub(d, s1, s2)
		case 2:
			b.BoolAnd(d, s1, s2)
		case 3:
			b.BoolOr(d, s1, s2)
		case 4:
			b.BoolXor(d, s1, s2)
		default:
			b.Mul(d, s1, s2)
		}
	case 5:
		// May divide by zero: a fault outside a transaction ends the
		// run with an error, inside one it aborts the region.
		b.Div(g.reg(), g.reg(), g.reg())
	case 6:
		d, s := g.reg(), g.reg()
		switch imm := int64(g.intn(64)); g.intn(3) {
		case 0:
			b.AddI(d, s, imm-32)
		case 1:
			b.Shl(d, s, imm)
		default:
			b.Shr(d, s, imm)
		}
	case 7:
		b.Mov(g.reg(), g.reg())
	case 8:
		imms := [...]int64{0, 1, 2, 7, -1, 1 << 40}
		b.MovI(g.reg(), imms[g.intn(len(imms))])
	case 9, 10:
		b.Load(g.reg(), g.line(), g.disp())
	case 11:
		b.AddM(g.reg(), g.line(), g.disp())
	case 12:
		b.Store(g.line(), g.disp(), g.reg())
	case 13:
		a, x, d := g.reg(), g.reg(), g.reg()
		g.wordAddr(a, x)
		b.LoadR(d, a, int64(g.line().Addr))
	case 14:
		a, x, v := g.reg(), g.reg(), g.reg()
		g.wordAddr(a, x)
		b.StoreR(a, int64(g.line().Addr), v)
	case 15:
		if g.intn(2) == 0 {
			b.Clflush(g.line(), g.disp())
		} else {
			b.ClflushCode("main")
		}
	case 16:
		b.Fence()
	case 17:
		b.Rdtsc(tscReg)
	case 18, 19:
		target := fmt.Sprintf("%s_%d", name, i+1+g.intn(n-i))
		switch g.intn(3) {
		case 0:
			b.Brz(g.reg(), target)
		case 1:
			b.Brnz(g.reg(), target)
		default:
			b.Jmp(target)
		}
	case 20:
		if sc == inSub || g.subs == 0 {
			b.Nop()
			return
		}
		b.Call(fmt.Sprintf("s%d", g.intn(g.subs)))
	case 21, 22:
		switch sc {
		case inMain:
			t := g.txns
			g.txns++
			b.XBegin(fmt.Sprintf("h%d", t))
			g.block(fmt.Sprintf("t%d", t), 1+g.intn(8), inTxn)
			b.XEnd().Label(fmt.Sprintf("h%d", t))
		case inTxn:
			if g.intn(4) == 0 {
				b.XAbort()
				return
			}
			z := g.reg()
			b.MovI(z, 0).Div(g.reg(), g.reg(), z)
		default:
			b.Nop()
		}
	default:
		b.Nop()
	}
}

// buildFuzzProgram turns fuzz bytes into a program with entry "main": a
// main block, then HALT, then up to three subroutines that end in RET.
func buildFuzzProgram(data []byte, lines []mem.Symbol) *isa.Program {
	g := &progGen{in: data, b: isa.NewBuilder(0x1000), lines: lines}
	g.subs = g.intn(4)
	n := 4 + g.intn(28)
	g.b.Label("main")
	g.block("m", n, inMain)
	g.b.Halt()
	for s := 0; s < g.subs; s++ {
		name := fmt.Sprintf("s%d", s)
		g.b.Label(name)
		g.block(name, 1+g.intn(6), inSub)
		g.b.Ret()
	}
	return g.b.MustBuild()
}

// archState is a starting point: registers and the data lines' words.
type archState struct {
	regs [isa.NumRegs]uint64
	mem  map[mem.Addr]uint64
}

func randomState(rng *noise.RNG, lines []mem.Symbol) archState {
	val := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return uint64(1 + rng.Intn(8))
		case 2:
			return uint64(lines[rng.Intn(len(lines))].Addr)
		default:
			return rng.Uint64()
		}
	}
	var s archState
	for r := range s.regs {
		s.regs[r] = val()
	}
	s.mem = make(map[mem.Addr]uint64)
	for _, l := range lines {
		for off := mem.Addr(0); off < mem.LineSize; off += 8 {
			if v := val(); v != 0 {
				s.mem[l.Addr+off] = v
			}
		}
	}
	return s
}

func (s archState) load(c *cpu.CPU, m *mem.Memory) {
	for r, v := range s.regs {
		c.SetReg(isa.Reg(r), v)
	}
	m.Restore(s.mem)
}

// failInRegion runs "xbegin; store; halt", which fails inside its open
// region. RunInto's contract for a failed run: the region is rolled
// back, so memory is as it was before the run, and no region stays
// open for the next run's XBEGIN.
func failInRegion(t *testing.T, c *cpu.CPU, m *mem.Memory, line mem.Symbol, v uint64) {
	t.Helper()
	b := isa.NewBuilder(0x8000)
	b.Label("main").XBegin("h").MovI(isa.R1, int64(v)).Store(line, 0, isa.R1).Halt()
	b.Label("h").Halt()
	before := m.Snapshot()
	// A noise-injected abort sends the run to its handler instead.
	if res, err := c.Run(b.MustBuild(), "main"); err == nil && res.SpuriousAborts == 0 {
		t.Fatal("halt inside an open region succeeded")
	}
	after := m.Snapshot()
	if !maps.Equal(before, after) {
		t.Fatalf("failed run's region was not rolled back: mem %v, before %v", after, before)
	}
}

// errClass names the three outcomes the reference distinguishes.
func errClass(err error) string {
	switch {
	case err == nil:
		return "halt"
	case errors.Is(err, cpu.ErrFault), errors.Is(err, errRefFault):
		return "fault"
	default:
		return "error"
	}
}

// checkEquivalence runs prog on a fresh CPU under the noise profile,
// first training its predictors and caches with random starting states,
// then from the checked state, and compares registers (the RDTSC
// register masked), memory and the outcome with the reference's. It
// reports false, comparing nothing, when a noise-injected abort hit the
// checked run: that abort is an architectural outcome the reference
// cannot foresee.
func checkEquivalence(t *testing.T, prog *isa.Program, profile noise.Config, seed uint64, train int, lines []mem.Symbol) bool {
	t.Helper()
	cfg := cpu.DefaultConfig()
	m := mem.New()
	c := cpu.New(cfg, m, noise.NewSource(seed, profile))
	rng := noise.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	for i := 0; i < train; i++ {
		randomState(rng, lines).load(c, m)
		if rng.Intn(4) == 0 {
			failInRegion(t, c, m, lines[rng.Intn(len(lines))], rng.Uint64())
			continue
		}
		_, _ = c.Run(prog, "main") // training outcomes do not matter
	}
	start := randomState(rng, lines)
	start.load(c, m)
	res, err := c.Run(prog, "main")
	if res.SpuriousAborts > 0 {
		return false
	}

	ref := &refMachine{regs: start.regs, mem: maps.Clone(start.mem)}
	refErr := ref.run(prog, prog.MustEntry("main"), cfg.MaxSteps)
	if got, want := errClass(err), errClass(refErr); got != want {
		t.Fatalf("outcome %s (%v), reference %s\n%s", got, err, want, prog.Disassemble())
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if r == tscReg {
			continue
		}
		if got, want := c.Reg(r), ref.regs[r]; got != want {
			t.Fatalf("%v = %#x, reference %#x\n%s", r, got, want, prog.Disassemble())
		}
	}
	got := m.Snapshot()
	for a, v := range ref.mem {
		if got[a] != v {
			t.Fatalf("mem[%#x] = %#x, reference %#x\n%s", uint64(a), got[a], v, prog.Disassemble())
		}
	}
	for a, v := range got {
		if _, ok := ref.mem[a]; !ok {
			t.Fatalf("mem[%#x] = %#x, reference 0\n%s", uint64(a), v, prog.Disassemble())
		}
	}
	return true
}

// FuzzArchitecturalEquivalence checks that the simulator's committed
// state is the sequential semantics' (the paper's claim that a weird
// computation lives only in microarchitectural state): whatever the
// predictors, caches, transient windows and noise did, final registers,
// memory and the run's outcome equal refMachine's. Each input builds a
// random program of ALU ops, loads and stores, forward branches,
// call/ret, clflush, fences, RDTSC and transactional regions that fault
// or XABORT, and runs it under the replayable and the paper's noise
// profiles.
func FuzzArchitecturalEquivalence(f *testing.F) {
	rng := noise.NewRNG(20211017)
	for i := 0; i < 128; i++ {
		seed := make([]byte, 8+24*(1+i%4))
		rng.Bytes(seed)
		f.Add(seed)
	}
	layout := mem.NewLayout(0x10_0000)
	lines := make([]mem.Symbol, 8)
	for i := range lines {
		lines[i] = layout.AllocLine(fmt.Sprintf("d%d", i))
	}
	checked, runs := 0, 0
	f.Fuzz(func(t *testing.T, data []byte) {
		var head [8]byte
		copy(head[:], data)
		seed := binary.LittleEndian.Uint64(head[:])
		body := data[min(len(data), 8):]
		prog := buildFuzzProgram(body, lines)
		train := int(seed % 8)
		for _, profile := range []noise.Config{noise.Quiet(), noise.Replayable(), noise.Paper()} {
			runs++
			if checkEquivalence(t, prog, profile, seed, train, lines) {
				checked++
			}
		}
	})
	f.Cleanup(func() {
		f.Logf("checked %d of %d runs (the rest met a noise-injected abort)", checked, runs)
	})
}
