package isa

import (
	"fmt"
	"strings"
	"testing"

	"uwm/internal/mem"
)

func sym(name string, addr mem.Addr) mem.Symbol {
	return mem.Symbol{Name: name, Addr: addr, Size: mem.LineSize}
}

func TestBuilderBasicProgram(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("start").
		MovI(R1, 7).
		Load(R2, sym("x", 0x9000), 0).
		Add(R3, R1, R2).
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 4 {
		t.Fatalf("len = %d", len(p.Code))
	}
	if p.Code[0].Addr != 0x1000 || p.Code[3].Addr != 0x1000+3*InstBytes {
		t.Error("instruction addresses wrong")
	}
	if idx := p.MustEntry("start"); idx != 0 {
		t.Errorf("entry = %d", idx)
	}
	if p.End() != 0x1000+4*InstBytes {
		t.Errorf("End = %#x", uint64(p.End()))
	}
}

func TestLabelResolution(t *testing.T) {
	b := NewBuilder(0)
	b.Label("a").
		Brz(R1, "b").
		Jmp("a")
	b.Label("b").Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].TargetIdx != 2 {
		t.Errorf("brz target = %d", p.Code[0].TargetIdx)
	}
	if p.Code[1].TargetIdx != 0 {
		t.Errorf("jmp target = %d", p.Code[1].TargetIdx)
	}
	if addr, err := p.LabelAddr("b"); err != nil || addr != 2*InstBytes {
		t.Errorf("LabelAddr = %#x, %v", uint64(addr), err)
	}
}

func TestUndefinedLabelFails(t *testing.T) {
	b := NewBuilder(0)
	b.Jmp("nowhere").Halt()
	if _, err := b.Build(); err == nil {
		t.Error("undefined label accepted")
	}
}

func TestDuplicateLabelFails(t *testing.T) {
	b := NewBuilder(0)
	b.Label("x").Nop().Label("x").Halt()
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestEmptyProgramFails(t *testing.T) {
	if _, err := NewBuilder(0).Build(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestAlignment(t *testing.T) {
	b := NewBuilder(0x40) // line-aligned base
	b.Label("e").Nop().Nop().Nop()
	b.AlignLine()
	b.Label("body").Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := p.LabelAddr("body")
	if uint64(addr)%mem.LineSize != 0 {
		t.Errorf("body at %#x, not line-aligned", uint64(addr))
	}
	// The branchless padding must be NOPs.
	for i := 3; i < p.MustEntry("body"); i++ {
		if p.Code[i].Op != NOP {
			t.Errorf("padding inst %d is %v", i, p.Code[i].Op)
		}
	}
}

func TestAlignAlreadyAligned(t *testing.T) {
	b := NewBuilder(0x80)
	b.Label("e")
	b.AlignLine() // no-op: already aligned
	b.Halt()
	p := b.MustBuild()
	if len(p.Code) != 1 {
		t.Errorf("alignment emitted %d instructions on an aligned boundary", len(p.Code)-1)
	}
}

func TestPadTo(t *testing.T) {
	b := NewBuilder(0x100)
	b.Label("e").Nop()
	b.PadTo(0x100 + 16*InstBytes)
	b.Label("far").Halt()
	p := b.MustBuild()
	if addr, _ := p.LabelAddr("far"); addr != 0x100+16*InstBytes {
		t.Errorf("far at %#x", uint64(addr))
	}
}

func TestPadToBackwardFails(t *testing.T) {
	b := NewBuilder(0x100)
	b.Nop().Nop()
	b.PadTo(0x100) // behind the cursor
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("backward PadTo accepted")
	}
}

func TestDisassembly(t *testing.T) {
	b := NewBuilder(0)
	x := sym("x", 0x9000)
	b.Label("main").
		MovI(R1, 42).
		Load(R2, x, 8).
		LoadR(R3, R2, 16).
		AddM(R3, x, 0).
		Store(x, 0, R3).
		StoreR(R2, 0, R3).
		BoolXor(R4, R1, R2).
		Shl(R5, R4, 3).
		Mul(R6, R5, R1).
		Div(R7, R6, R1).
		Clflush(x, 0).
		ClflushCode("main").
		Brz(R1, "main").
		Rdtsc(R8).
		Fence().
		XBegin("main").
		XEnd().
		XAbort().
		Halt()
	p := b.MustBuild()
	d := p.Disassemble()
	for _, want := range []string{
		"main:", "movi r1, 42", "load r2, [x+8]", "loadr r3, [r2+16]",
		"addm r3, [x+0]", "store [x+0], r3", "xor r4, r1, r2",
		"shl r5, r4, 3", "clflush [x+0]", "clflush.i main",
		"brz r1, main", "rdtsc r8", "xbegin main", "xend", "xabort",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestUses(t *testing.T) {
	b := NewBuilder(0)
	b.Label("a").MovI(R1, 1)
	b.Label("fire").Load(R2, sym("y", 0x100), 0).Halt()
	b.Label("tail").BoolAnd(R3, R1, R2).Halt()
	p := b.MustBuild()
	fire, tail := p.MustEntry("fire"), p.MustEntry("tail")
	if p.Uses(AND, fire, tail) {
		t.Error("fire section reported an AND it does not contain")
	}
	if !p.Uses(AND, tail, -1) {
		t.Error("tail's AND not found")
	}
	if !p.Uses(LOAD, 0, -1) {
		t.Error("LOAD not found in full scan")
	}
}

func TestEntryErrors(t *testing.T) {
	p := NewBuilder(0).Label("only").Halt().MustBuild()
	if _, err := p.Entry("missing"); err == nil {
		t.Error("Entry for missing label succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustEntry did not panic")
		}
	}()
	p.MustEntry("missing")
}

func TestLabelsCopy(t *testing.T) {
	p := NewBuilder(0).Label("x").Halt().MustBuild()
	l := p.Labels()
	l["x"] = 99
	if p.MustEntry("x") != 0 {
		t.Error("Labels() exposed internal map")
	}
}

func TestOpAndRegStrings(t *testing.T) {
	for r := Reg(0); r < NumRegs+2; r++ {
		if got, want := r.String(), fmt.Sprintf("r%d", uint8(r)); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(r), got, want)
		}
	}
	if LOAD.String() != "load" || Op(250).String() == "" {
		t.Error("op strings wrong")
	}
}

// TestTextMemo checks that Program.Text is each instruction's
// disassembly, that nothing is formatted before the first call, and
// that a memoized text is returned without allocating.
func TestTextMemo(t *testing.T) {
	b := NewBuilder(0)
	x := sym("x", 0x9000)
	b.Label("main").
		MovI(R1, 42).
		Load(R2, x, 8).
		Clflush(x, 0).
		ClflushCode("main").
		XBegin("abort").
		Mov(R3, R15).
		XEnd()
	b.Label("abort").Call("main").Ret().Halt()
	p := b.MustBuild()
	if p.text != nil {
		t.Fatal("Build formatted the program's text eagerly")
	}
	for i, inst := range p.Code {
		if got, want := p.Text(i), inst.String(); got != want {
			t.Errorf("Text(%d) = %q, want %q", i, got, want)
		}
	}
	if got := p.Text(p.MustEntry("main") + 3); got != "clflush.i main" {
		t.Errorf("CLFL text = %q", got)
	}
	if got := p.Text(4); got != "xbegin abort" {
		t.Errorf("XBEGIN text = %q", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = p.Text(2) }); allocs != 0 {
		t.Errorf("memoized Text allocates %v", allocs)
	}
}
