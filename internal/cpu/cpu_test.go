package cpu

import (
	"errors"
	"testing"

	"uwm/internal/isa"
	"uwm/internal/mem"
	"uwm/internal/noise"
	"uwm/internal/trace"
)

// rig bundles a quiet CPU with a layout for test programs.
type rig struct {
	cpu    *CPU
	layout *mem.Layout
}

func newRig() *rig {
	m := mem.New()
	c := New(DefaultConfig(), m, noise.NewSource(1, noise.Quiet()))
	return &rig{cpu: c, layout: mem.NewLayout(0x10_0000)}
}

func (r *rig) mustRun(t *testing.T, p *isa.Program, entry string) Result {
	t.Helper()
	res, err := r.cpu.Run(p, entry)
	if err != nil {
		t.Fatalf("run %s: %v", entry, err)
	}
	return res
}

func TestALUSemantics(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0x1000)
	b.Label("main").
		MovI(isa.R1, 20).
		MovI(isa.R2, 22).
		Add(isa.R3, isa.R1, isa.R2).
		Sub(isa.R4, isa.R3, isa.R1).
		BoolAnd(isa.R5, isa.R1, isa.R2).
		BoolOr(isa.R6, isa.R1, isa.R2).
		BoolXor(isa.R7, isa.R1, isa.R2).
		AddI(isa.R8, isa.R1, 100).
		Shl(isa.R9, isa.R1, 2).
		Shr(isa.R10, isa.R1, 2).
		Mul(isa.R11, isa.R1, isa.R2).
		Div(isa.R12, isa.R2, isa.R1).
		Mov(isa.R13, isa.R12).
		Halt()
	p := b.MustBuild()
	r.mustRun(t, p, "main")
	c := r.cpu
	checks := []struct {
		reg  isa.Reg
		want uint64
	}{
		{isa.R3, 42}, {isa.R4, 22}, {isa.R5, 20 & 22}, {isa.R6, 20 | 22},
		{isa.R7, 20 ^ 22}, {isa.R8, 120}, {isa.R9, 80}, {isa.R10, 5},
		{isa.R11, 440}, {isa.R12, 1}, {isa.R13, 1},
	}
	for _, ck := range checks {
		if got := c.Reg(ck.reg); got != ck.want {
			t.Errorf("%v = %d, want %d", ck.reg, got, ck.want)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	r := newRig()
	x := r.layout.AllocLine("x")
	y := r.layout.AllocLine("y")
	b := isa.NewBuilder(0x1000)
	b.Label("main").
		MovI(isa.R1, 1234).
		Store(x, 0, isa.R1).
		Load(isa.R2, x, 0).
		MovI(isa.R3, int64(y.Addr)).
		StoreR(isa.R3, 0, isa.R2). // *y = r2
		LoadR(isa.R4, isa.R3, 0).
		AddM(isa.R4, x, 0). // r4 += *x
		Halt()
	r.mustRun(t, b.MustBuild(), "main")
	if got := r.cpu.Reg(isa.R2); got != 1234 {
		t.Errorf("load = %d", got)
	}
	if got := r.cpu.mem.Read64(y.Addr); got != 1234 {
		t.Errorf("indirect store = %d", got)
	}
	if got := r.cpu.Reg(isa.R4); got != 2468 {
		t.Errorf("addm = %d", got)
	}
}

// timedLoad builds the canonical rdtsc;load;rdtsc probe.
func timedLoad(x mem.Symbol, flushFirst bool) *isa.Program {
	b := isa.NewBuilder(0x2000)
	b.Label("main")
	if flushFirst {
		b.Clflush(x, 0)
	} else {
		b.Load(isa.R9, x, 0)
	}
	b.Fence().
		Rdtsc(isa.R10).
		Load(isa.R11, x, 0).
		Rdtsc(isa.R12).
		Halt()
	return b.MustBuild()
}

func TestTimedLoadHitVsMiss(t *testing.T) {
	r := newRig()
	x := r.layout.AllocLine("x")

	r.mustRun(t, timedLoad(x, true), "main")
	miss := int64(r.cpu.Reg(isa.R12) - r.cpu.Reg(isa.R10))
	r.mustRun(t, timedLoad(x, false), "main")
	hit := int64(r.cpu.Reg(isa.R12) - r.cpu.Reg(isa.R10))

	if hit >= miss {
		t.Fatalf("hit %d not faster than miss %d", hit, miss)
	}
	// Calibrated bands: hit ≈ 35, miss ≈ 224 (paper Tables 6/7).
	if hit < 30 || hit > 45 {
		t.Errorf("hit latency %d outside [30,45]", hit)
	}
	if miss < 200 || miss > 250 {
		t.Errorf("miss latency %d outside [200,250]", miss)
	}
}

func TestTSCMonotonic(t *testing.T) {
	r := newRig()
	x := r.layout.AllocLine("x")
	before := r.cpu.TSC()
	r.mustRun(t, timedLoad(x, true), "main")
	if r.cpu.TSC() <= before {
		t.Error("TSC did not advance")
	}
	if int64(r.cpu.Reg(isa.R12)) <= int64(r.cpu.Reg(isa.R10)) {
		t.Error("timestamps not ordered")
	}
}

// TestSpeculativeWindowFillsCache is the heart of the model: a
// mispredicted branch whose condition load misses opens a window in
// which a wrong-path store fills a cache line without committing.
func TestSpeculativeWindowFillsCache(t *testing.T) {
	r := newRig()
	cond := r.layout.AllocLine("cond") // value 0 → branch taken
	out := r.layout.AllocLine("out")
	b := isa.NewBuilder(0x3000)
	// Train the branch to fall through (predict not taken).
	b.Label("train").
		MovI(isa.R1, 1).
		Jmp("br")
	b.Label("fire").
		Clflush(out, 0).
		Clflush(cond, 0).
		Fence().
		MovI(isa.R9, 42).
		Load(isa.R1, cond, 0)
	b.Label("br").Brz(isa.R1, "after")
	b.AlignLine()
	b.Label("body").Store(out, 0, isa.R9).Halt()
	b.AlignLine()
	b.Label("after").Halt()
	p := b.MustBuild()

	for i := 0; i < 4; i++ {
		r.mustRun(t, p, "train")
	}
	res := r.mustRun(t, p, "fire")
	if res.Mispredicts == 0 || res.SpecWindows == 0 {
		t.Fatalf("no speculation: %+v", res)
	}
	if !l1dHit(r.cpu, out.Addr) {
		t.Error("wrong-path store did not fill the output line")
	}
	if got := r.cpu.mem.Read64(out.Addr); got != 0 {
		t.Errorf("wrong-path store architecturally committed: %d", got)
	}
}

// TestNoWindowWhenPredictedCorrectly: a correctly predicted branch must
// not execute the body at all.
func TestNoWindowWhenPredictedCorrectly(t *testing.T) {
	r := newRig()
	cond := r.layout.AllocLine("cond")
	out := r.layout.AllocLine("out")
	b := isa.NewBuilder(0x3000)
	b.Label("train").
		MovI(isa.R1, 0). // taken: skip body — trains predictor correctly
		Jmp("br")
	b.Label("fire").
		Clflush(out, 0).
		Clflush(cond, 0).
		Fence().
		MovI(isa.R9, 42).
		Load(isa.R1, cond, 0)
	b.Label("br").Brz(isa.R1, "after")
	b.AlignLine()
	b.Label("body").Store(out, 0, isa.R9).Halt()
	b.AlignLine()
	b.Label("after").Halt()
	p := b.MustBuild()

	for i := 0; i < 4; i++ {
		r.mustRun(t, p, "train")
	}
	res := r.mustRun(t, p, "fire")
	if res.SpecWindows != 0 {
		t.Errorf("unexpected speculation on a correct prediction: %+v", res)
	}
	if l1dHit(r.cpu, out.Addr) {
		t.Error("output line filled without a window")
	}
}

// TestFlushedBodyStarvesWindow: with the body's code line flushed, the
// window closes before the fetch completes — the IC-WR race.
func TestFlushedBodyStarvesWindow(t *testing.T) {
	r := newRig()
	cond := r.layout.AllocLine("cond")
	out := r.layout.AllocLine("out")
	b := isa.NewBuilder(0x3000)
	b.Label("train").
		MovI(isa.R1, 1).
		Jmp("br")
	b.Label("flushbody").
		ClflushCode("body").
		Fence().
		Halt()
	b.Label("fire").
		Clflush(out, 0).
		Clflush(cond, 0).
		Fence().
		MovI(isa.R9, 42).
		Load(isa.R1, cond, 0)
	b.Label("br").Brz(isa.R1, "after")
	b.AlignLine()
	b.Label("body").Store(out, 0, isa.R9).Halt()
	b.AlignLine()
	b.Label("after").Halt()
	p := b.MustBuild()

	for i := 0; i < 4; i++ {
		r.mustRun(t, p, "train")
	}
	r.mustRun(t, p, "flushbody")
	res := r.mustRun(t, p, "fire")
	if res.SpecWindows == 0 {
		t.Fatal("expected a speculative window")
	}
	if l1dHit(r.cpu, out.Addr) {
		t.Error("flushed body still executed inside the window")
	}
}

// tsxProg builds a transaction that faults and then transiently chases
// *in + out (the TSX assign chain).
func tsxProg(in, out mem.Symbol) *isa.Program {
	b := isa.NewBuilder(0x4000)
	b.Label("prep").
		Clflush(out, 0).
		Fence().
		Halt()
	b.Label("touch_in").Load(isa.R3, in, 0).Fence().Halt()
	b.Label("flush_in").Clflush(in, 0).Fence().Halt()
	b.Label("fire").
		MovI(isa.R15, 7).
		XBegin("handler").
		MovI(isa.R2, 0).
		Div(isa.R3, isa.R15, isa.R2). // fault
		Load(isa.R4, in, 0).
		LoadR(isa.R5, isa.R4, int64(out.Addr)).
		MovI(isa.R15, 99). // transient: must never commit
		XEnd()
	b.Label("handler").Halt()
	b.Label("commit").
		XBegin("handler2").
		MovI(isa.R14, 55).
		Store(out, 0, isa.R14).
		XEnd().
		Halt()
	b.Label("handler2").Halt()
	return b.MustBuild()
}

func TestTSXPostFaultWindow(t *testing.T) {
	r := newRig()
	in := r.layout.AllocLine("in")
	out := r.layout.AllocLine("out")
	p := tsxProg(in, out)

	// Input cached → transient chain reaches out.
	r.mustRun(t, p, "touch_in")
	r.mustRun(t, p, "prep")
	res := r.mustRun(t, p, "fire")
	if res.TxAborts != 1 {
		t.Fatalf("aborts = %d", res.TxAborts)
	}
	if !l1dHit(r.cpu, out.Addr) {
		t.Error("transient chain did not fill out")
	}
	if r.cpu.Reg(isa.R15) != 7 {
		t.Errorf("transient register write survived the abort: r15 = %d", r.cpu.Reg(isa.R15))
	}

	// Input flushed → chain starves, out stays cold.
	r.mustRun(t, p, "flush_in")
	r.mustRun(t, p, "prep")
	r.mustRun(t, p, "fire")
	if l1dHit(r.cpu, out.Addr) {
		t.Error("starved chain still filled out")
	}
}

func TestTSXCommitAndRollback(t *testing.T) {
	r := newRig()
	in := r.layout.AllocLine("in")
	out := r.layout.AllocLine("out")
	p := tsxProg(in, out)

	res := r.mustRun(t, p, "commit")
	if res.TxCommits != 1 {
		t.Fatalf("commits = %d", res.TxCommits)
	}
	if got := r.cpu.mem.Read64(out.Addr); got != 55 {
		t.Errorf("committed store lost: %d", got)
	}

	// An aborting transaction's store must roll back.
	r.cpu.mem.Write64(out.Addr, 7)
	b := isa.NewBuilder(0x6000)
	b.Label("roll").
		XBegin("h").
		MovI(isa.R1, 11).
		Store(out, 0, isa.R1).
		XAbort().
		XEnd()
	b.Label("h").Halt()
	r.mustRun(t, b.MustBuild(), "roll")
	if got := r.cpu.mem.Read64(out.Addr); got != 7 {
		t.Errorf("aborted store leaked: %d", got)
	}
}

func TestFaultOutsideTransaction(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0x7000)
	b.Label("main").
		MovI(isa.R1, 1).
		MovI(isa.R2, 0).
		Div(isa.R3, isa.R1, isa.R2).
		Halt()
	if _, err := r.cpu.Run(b.MustBuild(), "main"); !errors.Is(err, ErrFault) {
		t.Errorf("err = %v, want ErrFault", err)
	}
}

func TestNestedTransactionRejected(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0x7000)
	b.Label("main").
		XBegin("h").
		XBegin("h").
		XEnd()
	b.Label("h").Halt()
	if _, err := r.cpu.Run(b.MustBuild(), "main"); err == nil {
		t.Error("nested xbegin accepted")
	}
}

func TestHaltInsideTransactionRejected(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0x7000)
	b.Label("main").XBegin("h").Halt()
	b.Label("h").Halt()
	if _, err := r.cpu.Run(b.MustBuild(), "main"); err == nil {
		t.Error("halt inside txn accepted")
	}
}

func TestXEndOutsideTransactionRejected(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0x7000)
	b.Label("main").XEnd().Halt()
	if _, err := r.cpu.Run(b.MustBuild(), "main"); err == nil {
		t.Error("stray xend accepted")
	}
}

func TestRunawayProgram(t *testing.T) {
	m := mem.New()
	cfg := DefaultConfig()
	cfg.MaxSteps = 100
	c := New(cfg, m, nil)
	b := isa.NewBuilder(0x100)
	b.Label("spin").Jmp("spin")
	if _, err := c.Run(b.MustBuild(), "spin"); !errors.Is(err, ErrRunaway) {
		t.Errorf("err = %v, want ErrRunaway", err)
	}
}

func TestUnknownEntry(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0x100)
	b.Label("a").Halt()
	if _, err := r.cpu.Run(b.MustBuild(), "zzz"); err == nil {
		t.Error("unknown entry accepted")
	}
}

func TestJMPUsesBTB(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0x8000)
	b.Label("main").Jmp("tgt")
	b.Label("tgt").Halt()
	p := b.MustBuild()
	r.mustRun(t, p, "main")
	first := r.cpu.Stats().Committed
	_ = first
	// After one execution the BTB holds the target.
	if tgt, ok := r.cpu.btb.Lookup(p.Code[0].Addr); !ok || tgt != p.Code[1].Addr {
		t.Error("BTB not updated by jmp")
	}
}

func TestMulContentionDecay(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0x9000)
	b.Label("burst").MovI(isa.R1, 3).MovI(isa.R2, 5)
	for i := 0; i < 16; i++ {
		b.Mul(isa.R3, isa.R1, isa.R2)
	}
	b.Halt()
	b.Label("wait")
	for i := 0; i < 250; i++ {
		b.Nop()
	}
	b.Halt()
	r.mustRun(t, b.MustBuild(), "burst")
	high := r.cpu.MulPressure()
	r.mustRun(t, b.MustBuild(), "wait")
	low := r.cpu.MulPressure()
	if high < 5 {
		t.Errorf("burst pressure %f too low", high)
	}
	if low > high/2 {
		t.Errorf("pressure did not decay: %f → %f", high, low)
	}
}

func TestSpuriousAbortInjection(t *testing.T) {
	m := mem.New()
	ns := noise.NewSource(3, noise.Config{SpuriousAbortProb: 1}) // always abort
	c := New(DefaultConfig(), m, ns)
	layout := mem.NewLayout(0x10_0000)
	out := layout.AllocLine("out")
	b := isa.NewBuilder(0x100)
	b.Label("main").
		XBegin("h").
		MovI(isa.R1, 9).
		Store(out, 0, isa.R1).
		XEnd().
		Halt()
	b.Label("h").Halt()
	res, err := c.Run(b.MustBuild(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if res.SpuriousAborts != 1 || res.TxCommits != 0 {
		t.Errorf("res = %+v", res)
	}
	if c.mem.Read64(out.Addr) != 0 {
		t.Error("spuriously aborted store committed")
	}
}

func TestObservedAbortsTransactions(t *testing.T) {
	r := newRig()
	out := r.layout.AllocLine("out")
	b := isa.NewBuilder(0x100)
	b.Label("main").
		XBegin("h").
		MovI(isa.R1, 9).
		Store(out, 0, isa.R1).
		XEnd().
		Halt()
	b.Label("h").Halt()
	p := b.MustBuild()
	r.cpu.SetObserved(true)
	res := r.mustRun(t, p, "main")
	if res.TxCommits != 0 || res.TxAborts != 1 {
		t.Errorf("observed txn: %+v", res)
	}
	if r.cpu.Stats().ObservedAborts != 1 {
		t.Error("ObservedAborts not counted")
	}
	r.cpu.SetObserved(false)
	res = r.mustRun(t, p, "main")
	if res.TxCommits != 1 {
		t.Errorf("unobserved txn: %+v", res)
	}
}

// TestMSHRMerging: a second access to a line whose miss is in flight
// completes with the fill rather than instantly.
func TestMSHRMerging(t *testing.T) {
	r := newRig()
	x := r.layout.AllocLine("x")
	b := isa.NewBuilder(0xA000)
	b.Label("main").
		Clflush(x, 0).
		Fence().
		Load(isa.R1, x, 0). // miss in flight
		Rdtsc(isa.R10).     // serializes: waits for the fill
		Load(isa.R2, x, 0). // now a plain hit
		Rdtsc(isa.R12).
		Halt()
	r.mustRun(t, b.MustBuild(), "main")
	delta := int64(r.cpu.Reg(isa.R12) - r.cpu.Reg(isa.R10))
	if delta > 45 {
		t.Errorf("post-serialize reload took %d cycles; expected a hit", delta)
	}
}

// TestStoreRWaitsForAddress: a committed STORR whose address register a
// DRAM-missing load produces issues its write-allocate access when the
// address arrives, as LOADR and a transient STORR do: the store's fill
// completes a DRAM latency after the load's, and a serializing read
// waits for it.
func TestStoreRWaitsForAddress(t *testing.T) {
	r := newRig()
	ptr := r.layout.AllocLine("ptr")
	dst := r.layout.AllocLine("dst")
	r.cpu.mem.Write64(ptr.Addr, uint64(dst.Addr))
	b := isa.NewBuilder(0xC000)
	b.Label("main").
		Clflush(ptr, 0).
		Clflush(dst, 0).
		Fence().
		Load(isa.R1, ptr, 0).      // misses to DRAM: the address arrives late
		StoreR(isa.R1, 8, isa.R2). // write-allocates dst's line
		Halt()
	b.Label("read").Rdtsc(isa.R10).Halt()
	p := b.MustBuild()
	r.mustRun(t, p, "main") // warm the code lines
	r.mustRun(t, p, "read")
	r.mustRun(t, p, "main")
	fills := r.cpu.Inflight()
	ptrDone, ok1 := fills[ptr.Addr.Line()]
	dstDone, ok2 := fills[dst.Addr.Line()]
	if !ok1 || !ok2 {
		t.Fatalf("pending fills %v, want ptr's and dst's lines", fills)
	}
	if mem := r.cpu.Config().Hierarchy.MemLatency; dstDone-ptrDone < mem {
		t.Errorf("store fill completes %d cycles after the address load's, want at least the %d-cycle DRAM latency", dstDone-ptrDone, mem)
	}
	r.mustRun(t, p, "read")
	if got := int64(r.cpu.Reg(isa.R10)); got != dstDone {
		t.Errorf("serializing read at cycle %d, want the store fill's completion %d", got, dstDone)
	}
	if got := r.cpu.mem.Read64(dst.Addr + 8); got != r.cpu.Reg(isa.R2) {
		t.Errorf("stored %d, want %d", got, r.cpu.Reg(isa.R2))
	}
}

func TestRegWriteReadBack(t *testing.T) {
	r := newRig()
	r.cpu.SetReg(isa.R5, 777)
	if r.cpu.Reg(isa.R5) != 777 {
		t.Error("SetReg/Reg mismatch")
	}
}

// TestCallRetRoundTrip: the link-register call/return convention with
// RSB prediction.
func TestCallRetRoundTrip(t *testing.T) {
	r := newRig()
	x := r.layout.AllocLine("x")
	b := isa.NewBuilder(0xB000)
	b.Label("main").
		MovI(isa.R1, 5).
		Call("double").
		Call("double").
		Store(x, 0, isa.R1).
		Halt()
	b.Label("double").
		Add(isa.R1, isa.R1, isa.R1).
		Ret()
	p := b.MustBuild()
	r.mustRun(t, p, "main")
	if got := r.cpu.mem.Read64(x.Addr); got != 20 {
		t.Errorf("double(double(5)) = %d, want 20", got)
	}
}

// TestRetMispredictionCosts: a return whose address was forged (not on
// the RSB) pays the refill penalty.
func TestRetMispredictionCosts(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0xB000)
	b.Label("main").
		Call("fn").
		Halt()
	b.Label("fn").Ret()
	b.Label("forged").
		MovI(isa.R15, int64(0xB000+isa.InstBytes)). // return to main+1 without a call
		Ret()
	p := b.MustBuild()

	// Warm code.
	r.mustRun(t, p, "main")
	resGood := r.mustRun(t, p, "main")
	resBad := r.mustRun(t, p, "forged")
	// Per-instruction costs differ, but the forged return must pay at
	// least the mispredict penalty more than the predicted one's ret.
	if (resBad.EndCycle - resBad.StartCycle) < r.cpu.Config().MispredictPenalty {
		t.Errorf("forged return too cheap: %d cycles", (resBad.EndCycle - resBad.StartCycle))
	}
	_ = resGood
}

// TestRetOutsideProgramFails: returning to a bogus address is an error.
func TestRetOutsideProgramFails(t *testing.T) {
	r := newRig()
	b := isa.NewBuilder(0xB000)
	b.Label("main").
		MovI(isa.R15, 0x12345679). // unaligned, out of range
		Ret()
	if _, err := r.cpu.Run(b.MustBuild(), "main"); err == nil {
		t.Error("bogus return address accepted")
	}
}

// TestTransientCallRet: call/ret chains execute inside transient
// windows, so gate bodies can be shared subroutines.
func TestTransientCallRet(t *testing.T) {
	r := newRig()
	out := r.layout.AllocLine("out")
	b := isa.NewBuilder(0xB000)
	b.Label("fire").
		Clflush(out, 0).
		MovI(isa.R9, 3).
		XBegin("h").
		MovI(isa.R2, 0).
		Div(isa.R3, isa.R9, isa.R2). // window opens
		Call("sub").
		XEnd()
	b.Label("h").Halt()
	b.Label("sub").
		Store(out, 0, isa.R9).
		Ret()
	p := b.MustBuild()
	r.mustRun(t, p, "fire")
	r.mustRun(t, p, "fire") // warmed
	if !l1dHit(r.cpu, out.Addr) {
		t.Error("transient call did not reach the subroutine")
	}
}

// countingSink is a live recorder that counts its Enabled checks.
type countingSink struct {
	*trace.Recorder
	checks int
}

func (s *countingSink) Enabled() bool { s.checks++; return true }

// TestTracingCheckedOncePerRun: a run reads its sink's state once, on
// entry, and the events it emits carry the same texts as a fresh
// disassembly of the instruction at their PC. (The program flushes
// only code: a data clflush's event text is plain "clflush".)
func TestTracingCheckedOncePerRun(t *testing.T) {
	r := newRig()
	x := r.layout.AllocLine("x")
	b := isa.NewBuilder(0x5000)
	b.Label("main").
		MovI(isa.R1, 0).
		ClflushCode("abort").
		XBegin("abort").
		Div(isa.R2, isa.R1, isa.R1).
		Load(isa.R3, x, 0).
		XEnd()
	b.AlignLine()
	b.Label("abort").Halt()
	p := b.MustBuild()
	sink := &countingSink{Recorder: trace.NewRecorder(0)}
	r.cpu.SetSink(sink)
	for run := 1; run <= 2; run++ {
		r.mustRun(t, p, "main")
		if sink.checks != run {
			t.Fatalf("after %d runs the sink was checked %d times", run, sink.checks)
		}
	}
	want := map[trace.Kind]int{trace.KindCommit: 0, trace.KindSpecExec: 0, trace.KindTxBegin: 0, trace.KindCacheFlush: 0}
	for _, e := range sink.Events() {
		if _, ok := want[e.Kind]; !ok {
			continue
		}
		want[e.Kind]++
		inst := p.Code[(mem.Addr(e.PC)-p.Base)/isa.InstBytes]
		if e.Text != inst.String() {
			t.Errorf("%s at %#x: text %q, want %q", e.Kind, e.PC, e.Text, inst.String())
		}
	}
	for k, n := range want {
		if n == 0 {
			t.Errorf("no %s event recorded", k)
		}
	}
}

// TestFailedRunClosesTransaction: a run that ends in an error inside an
// open region rolls the region back, so the next XBEGIN on the same CPU
// works and the failed run's store is gone.
func TestFailedRunClosesTransaction(t *testing.T) {
	r := newRig()
	out := r.layout.AllocLine("out")
	b := isa.NewBuilder(0x1000)
	b.Label("bad").XBegin("h").MovI(isa.R1, 9).Store(out, 0, isa.R1).Halt()
	b.Label("h").Halt()
	b.Label("good").XBegin("h2").XEnd().Halt()
	b.Label("h2").Halt()
	p := b.MustBuild()
	if _, err := r.cpu.Run(p, "bad"); err == nil {
		t.Fatal("halt inside a region succeeded")
	}
	if got := r.cpu.mem.Read64(out.Addr); got != 0 {
		t.Errorf("failed run's store survived: %d", got)
	}
	if got := r.cpu.Reg(isa.R1); got != 0 {
		t.Errorf("failed run's register write survived: r1 = %d", got)
	}
	if res, err := r.cpu.Run(p, "good"); err != nil || res.TxAborts != 0 {
		t.Fatalf("run after a failed one: %+v, %v", res, err)
	}
}
