package cpu

import (
	"testing"

	"uwm/internal/isa"
	"uwm/internal/mem"
	"uwm/internal/noise"
)

// TestSpecFollowsJmp: unconditional jumps on the wrong path are
// followed, so a transient body placed behind a jmp still executes.
func TestSpecFollowsJmp(t *testing.T) {
	r := newRig()
	out := r.layout.AllocLine("out")
	in := r.layout.AllocLine("in")
	b := isa.NewBuilder(0x1000)
	b.Label("fire").
		Clflush(out, 0).
		Load(isa.R9, in, 0). // warm value for the store
		XBegin("h").
		MovI(isa.R2, 0).
		Div(isa.R3, isa.R9, isa.R2).
		Jmp("far").
		Halt() // skipped by the jmp
	b.Label("far").
		Store(out, 0, isa.R9).
		XEnd()
	b.Label("h").Halt()
	p := b.MustBuild()
	// Warm the code (first transient execution needs cached lines).
	r.mustRun(t, p, "fire")
	r.mustRun(t, p, "fire")
	if !l1dHit(r.cpu, out.Addr) {
		t.Error("transient path did not follow the jmp")
	}
}

// TestSpecBranchFollowsResolvedDirection: a conditional branch inside a
// window whose condition is ready follows the real direction.
func TestSpecBranchFollowsResolvedDirection(t *testing.T) {
	r := newRig()
	outA := r.layout.AllocLine("outA")
	outB := r.layout.AllocLine("outB")
	b := isa.NewBuilder(0x1000)
	b.Label("fire").
		Clflush(outA, 0).
		Clflush(outB, 0).
		MovI(isa.R7, 1). // condition: ready immediately, nonzero
		XBegin("h").
		MovI(isa.R2, 0).
		MovI(isa.R3, 5).
		Div(isa.R3, isa.R3, isa.R2).
		Brnz(isa.R7, "takeB").
		Store(outA, 0, isa.R7).
		XEnd()
	b.Label("takeB").
		Store(outB, 0, isa.R7).
		XEnd()
	b.Label("h").Halt()
	p := b.MustBuild()
	r.mustRun(t, p, "fire")
	r.mustRun(t, p, "fire") // warmed
	if l1dHit(r.cpu, outA.Addr) {
		t.Error("transient branch took the wrong (not-taken) path")
	}
	if !l1dHit(r.cpu, outB.Addr) {
		t.Error("transient branch did not reach the taken path")
	}
}

// TestSpecNestedFaultStops: a divide-by-zero in the shadow of a window
// terminates it.
func TestSpecNestedFaultStops(t *testing.T) {
	r := newRig()
	out := r.layout.AllocLine("out")
	b := isa.NewBuilder(0x1000)
	b.Label("fire").
		Clflush(out, 0).
		MovI(isa.R9, 3).
		XBegin("h").
		MovI(isa.R2, 0).
		Div(isa.R3, isa.R9, isa.R2). // fault: window opens
		Div(isa.R4, isa.R9, isa.R2). // nested fault: window dies here
		Store(out, 0, isa.R9).
		XEnd()
	b.Label("h").Halt()
	p := b.MustBuild()
	r.mustRun(t, p, "fire")
	r.mustRun(t, p, "fire")
	if l1dHit(r.cpu, out.Addr) {
		t.Error("store executed past a nested transient fault")
	}
}

// TestSpecInstructionCap: the window executes at most MaxSpecInsts
// instructions (the ROB-capacity analogue).
func TestSpecInstructionCap(t *testing.T) {
	m := mem.New()
	cfg := DefaultConfig()
	cfg.MaxSpecInsts = 8
	cfg.TSXWindow = 10_000
	c := New(cfg, m, noise.NewSource(1, noise.Quiet()))
	layout := mem.NewLayout(0x10_0000)
	out := layout.AllocLine("out")
	b := isa.NewBuilder(0x1000)
	b.Label("fire").
		Clflush(out, 0).
		MovI(isa.R9, 3).
		XBegin("h").
		MovI(isa.R2, 0).
		Div(isa.R3, isa.R9, isa.R2)
	for i := 0; i < 16; i++ {
		b.Nop()
	}
	b.Store(out, 0, isa.R9). // beyond the 8-instruction cap
					XEnd()
	b.Label("h").Halt()
	p := b.MustBuild()
	if _, err := c.Run(p, "fire"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(p, "fire"); err != nil {
		t.Fatal(err)
	}
	if l1dHit(c, out.Addr) {
		t.Error("store executed past the spec instruction cap")
	}
}

// TestSpecFenceWaitsForChains: a fence inside the window delays
// subsequent issues to the chain's completion, pushing them past the
// deadline.
func TestSpecFenceWaitsForChains(t *testing.T) {
	r := newRig()
	in := r.layout.AllocLine("in")
	out := r.layout.AllocLine("out")
	b := isa.NewBuilder(0x1000)
	b.Label("fire").
		Clflush(out, 0).
		Clflush(in, 0). // in misses: its chain outlasts the window
		Fence().
		MovI(isa.R9, 3).
		XBegin("h").
		MovI(isa.R2, 0).
		Div(isa.R3, isa.R9, isa.R2).
		Load(isa.R4, in, 0). // ~190-cycle miss
		Fence().             // wait for it — beyond the window
		Store(out, 0, isa.R9).
		XEnd()
	b.Label("h").Halt()
	p := b.MustBuild()
	r.mustRun(t, p, "fire")
	r.cpu.Hierarchy().FlushData(out.Addr)
	r.cpu.Hierarchy().FlushData(in.Addr)
	r.mustRun(t, p, "fire")
	if l1dHit(r.cpu, out.Addr) {
		t.Error("post-fence store issued inside the window despite the pending miss")
	}
}

// TestWrongPathRegisterIsolation: transient register writes never reach
// architectural state even without a transaction (mispredict path).
func TestWrongPathRegisterIsolation(t *testing.T) {
	r := newRig()
	cond := r.layout.AllocLine("cond")
	b := isa.NewBuilder(0x1000)
	b.Label("train").MovI(isa.R1, 1).Jmp("br")
	b.Label("fire").
		MovI(isa.R8, 7).
		Clflush(cond, 0).
		Fence().
		Load(isa.R1, cond, 0)
	b.Label("br").Brz(isa.R1, "after")
	b.AlignLine()
	b.Label("body").MovI(isa.R8, 99).Halt()
	b.AlignLine()
	b.Label("after").Halt()
	p := b.MustBuild()
	for i := 0; i < 4; i++ {
		r.mustRun(t, p, "train")
	}
	res := r.mustRun(t, p, "fire")
	if res.SpecWindows == 0 {
		t.Fatal("no window opened")
	}
	if r.cpu.Reg(isa.R8) != 7 {
		t.Errorf("wrong-path register write leaked: r8 = %d", r.cpu.Reg(isa.R8))
	}
}
