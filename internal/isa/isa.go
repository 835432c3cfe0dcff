// Package isa defines the small instruction set μWM programs are written
// in, together with a two-pass assembler (Builder) and a disassembler.
//
// The set mirrors the x86 subset the paper's gates need: moves, loads and
// stores (direct, register-indirect and add-with-memory-operand forms),
// plain ALU ops, clflush on data and code, conditional branches,
// rdtscp-style timed reads, integer divide (the TSX abort trigger), and
// the TSX region markers XBEGIN/XEND/XABORT. Weird gates are built as
// programs over this ISA and executed by package cpu; their logic comes
// from timing, not from the ALU ops — a property the test suite checks by
// disassembling gate programs.
package isa

import (
	"fmt"
	"strings"

	"uwm/internal/mem"
)

// Reg names an architectural register R0–R15.
type Reg uint8

// Architectural registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	// NumRegs is the architectural register count.
	NumRegs = 16
)

// regNames are the registers' assembly names, so that naming one in a
// trace event allocates nothing.
var regNames = [NumRegs]string{
	"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// String returns the register's assembly name.
func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	NOP Op = iota
	HALT
	MOVI  // dst ← imm
	MOV   // dst ← src1
	LOAD  // dst ← mem64[abs+imm]          (data cache access)
	LOADR // dst ← mem64[src1+imm]         (register-indirect, pointer chase)
	ADDM  // dst ← dst + mem64[abs+imm]    (add with memory operand)
	STORE // mem64[abs+imm] ← src1
	STORR // mem64[src1+imm] ← src2
	ADD   // dst ← src1 + src2
	ADDI  // dst ← src1 + imm
	SUB   // dst ← src1 - src2
	AND   // dst ← src1 & src2
	OR    // dst ← src1 | src2
	XOR   // dst ← src1 ^ src2
	SHL   // dst ← src1 << imm
	SHR   // dst ← src1 >> imm
	MUL   // dst ← src1 * src2             (uses the multiply unit; contention-visible)
	DIV   // dst ← src1 / src2             (src2 == 0 faults / aborts a transaction)
	CLF   // clflush data line at abs+imm
	CLFL  // clflush code line containing label target
	BRZ   // if src1 == 0 jump to target   (conditional, direction-predicted)
	BRNZ  // if src1 != 0 jump to target
	JMP   // unconditional jump to target  (BTB-predicted)
	RDTSC // dst ← serializing timestamp (rdtscp-like)
	FENCE // full serialization barrier
	XBEGIN
	XEND
	XABORT
	CALL // link register (R15) ← return address; jump to target
	RET  // jump to src1 (conventionally R15), predicted by the RSB
)

var opNames = map[Op]string{
	NOP: "nop", HALT: "halt", MOVI: "movi", MOV: "mov", LOAD: "load",
	LOADR: "loadr", ADDM: "addm", STORE: "store", STORR: "storr",
	ADD: "add", ADDI: "addi", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", MUL: "mul", DIV: "div", CLF: "clflush",
	CLFL: "clflush.i", BRZ: "brz", BRNZ: "brnz", JMP: "jmp",
	RDTSC: "rdtsc", FENCE: "fence", XBEGIN: "xbegin", XEND: "xend",
	XABORT: "xabort", CALL: "call", RET: "ret",
}

// String names the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// InstBytes is the fixed encoded size of one instruction; it determines
// how many instructions share a cache line (mem.LineSize / InstBytes).
const InstBytes = 4

// Inst is one decoded instruction. Addr and TargetIdx are filled in by
// the assembler.
type Inst struct {
	Op              Op
	Dst, Src1, Src2 Reg
	Imm             int64
	Sym             string   // data symbol name (for disassembly)
	SymAddr         mem.Addr // resolved data address for abs-addressed ops
	Target          string   // label name for control transfers / CLFL
	TargetIdx       int      // resolved instruction index of Target
	Addr            mem.Addr // code address of this instruction
}

// String disassembles the instruction.
func (i Inst) String() string {
	sym := i.Sym
	if sym == "" && i.SymAddr != 0 {
		sym = fmt.Sprintf("%#x", uint64(i.SymAddr))
	}
	switch i.Op {
	case NOP, HALT, FENCE, XEND, XABORT:
		return i.Op.String()
	case MOVI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Dst, i.Imm)
	case MOV:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Dst, i.Src1)
	case LOAD:
		return fmt.Sprintf("%s %s, [%s+%d]", i.Op, i.Dst, sym, i.Imm)
	case LOADR:
		return fmt.Sprintf("%s %s, [%s+%d]", i.Op, i.Dst, i.Src1, i.Imm)
	case ADDM:
		return fmt.Sprintf("%s %s, [%s+%d]", i.Op, i.Dst, sym, i.Imm)
	case STORE:
		return fmt.Sprintf("%s [%s+%d], %s", i.Op, sym, i.Imm, i.Src1)
	case STORR:
		return fmt.Sprintf("%s [%s+%d], %s", i.Op, i.Src1, i.Imm, i.Src2)
	case ADD, SUB, AND, OR, XOR, MUL, DIV:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Dst, i.Src1, i.Src2)
	case ADDI, SHL, SHR:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Dst, i.Src1, i.Imm)
	case CLF:
		return fmt.Sprintf("%s [%s+%d]", i.Op, sym, i.Imm)
	case CLFL:
		return fmt.Sprintf("%s %s", i.Op, i.Target)
	case BRZ, BRNZ:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Src1, i.Target)
	case JMP, CALL:
		return fmt.Sprintf("%s %s", i.Op, i.Target)
	case RET:
		return fmt.Sprintf("%s %s", i.Op, i.Src1)
	case RDTSC:
		return fmt.Sprintf("%s %s", i.Op, i.Dst)
	case XBEGIN:
		return fmt.Sprintf("%s %s", i.Op, i.Target)
	default:
		return i.Op.String()
	}
}

// Program is an assembled instruction sequence with resolved labels.
type Program struct {
	Base   mem.Addr
	Code   []Inst
	labels map[string]int
	// text memoizes Code[i].String() for Text. It is filled lazily, on
	// the first traced run, so untraced programs never pay for
	// disassembly. It is not locked: a Program is written only by the
	// goroutine of the machine that owns it, as is the rest of that
	// machine's state.
	text []string
}

// Text returns the disassembly of instruction idx, Code[idx].String(),
// formatting it on first use only. Since the text of a CLFL or XBEGIN
// is its opcode and target, it also serves as the detail of the
// cache-flush and transaction-begin trace events.
func (p *Program) Text(idx int) string {
	if p.text == nil {
		p.text = make([]string, len(p.Code))
	}
	s := p.text[idx]
	if s == "" {
		s = p.Code[idx].String()
		p.text[idx] = s
	}
	return s
}

// Entry returns the instruction index of a label.
func (p *Program) Entry(label string) (int, error) {
	idx, ok := p.labels[label]
	if !ok {
		return 0, fmt.Errorf("isa: program has no label %q", label)
	}
	return idx, nil
}

// MustEntry is Entry for labels the caller emitted itself.
func (p *Program) MustEntry(label string) int {
	idx, err := p.Entry(label)
	if err != nil {
		panic(err)
	}
	return idx
}

// LabelAddr returns the code address of a label.
func (p *Program) LabelAddr(label string) (mem.Addr, error) {
	idx, err := p.Entry(label)
	if err != nil {
		return 0, err
	}
	return p.Code[idx].Addr, nil
}

// Labels returns a copy of the label table (name → instruction index).
func (p *Program) Labels() map[string]int {
	cp := make(map[string]int, len(p.labels))
	for k, v := range p.labels {
		cp[k] = v
	}
	return cp
}

// End returns the first code address past the program.
func (p *Program) End() mem.Addr {
	return p.Base + mem.Addr(len(p.Code)*InstBytes)
}

// Disassemble renders the whole program with labels and addresses.
func (p *Program) Disassemble() string {
	byIdx := make(map[int][]string)
	for name, idx := range p.labels {
		byIdx[idx] = append(byIdx[idx], name)
	}
	var sb strings.Builder
	for i, inst := range p.Code {
		for _, l := range byIdx[i] {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		fmt.Fprintf(&sb, "  %#08x  %s\n", uint64(inst.Addr), inst)
	}
	return sb.String()
}

// Uses reports whether any instruction in [from, to) uses opcode op;
// to < 0 means the end of the program. The obfuscation tests use it to
// prove gate sections contain no architectural boolean instruction.
func (p *Program) Uses(op Op, from, to int) bool {
	if to < 0 || to > len(p.Code) {
		to = len(p.Code)
	}
	for i := from; i < to; i++ {
		if p.Code[i].Op == op {
			return true
		}
	}
	return false
}
