package core

import (
	"fmt"

	"uwm/internal/isa"
	"uwm/internal/mem"
	"uwm/internal/stats"
)

// Weird registers (paper §3.1, Table 1): storage entities implemented
// in microarchitectural state. Each register is a small multi-entry
// program; Write drives the resource into one of two states and Read
// times an operation whose latency depends on that state.
//
// Reads are invasive (they disturb the stored state) and some registers
// are volatile (their value decays within hundreds of cycles) — both
// properties the paper lists, and both covered by tests.

// WeirdRegister is the common surface of all Table 1 registers.
type WeirdRegister interface {
	// Name identifies the backing microarchitectural resource.
	Name() string
	// Write drives the resource into the state encoding bit.
	Write(bit int) error
	// Read recovers the stored bit by timing; it may destroy or
	// perturb the stored state.
	Read() (int, error)
	// ReadRaw returns the raw measured latency alongside the bit.
	ReadRaw() (int, int64, error)
}

// wrBase carries the pieces every register implementation shares.
type wrBase struct {
	m         *Machine
	name      string
	prog      *isa.Program
	threshold int64
	// fastIsOne reports whether a fast read means logic 1.
	fastIsOne bool
	// read and write[bit] are the program's entry points, resolved
	// when the register is built.
	read  int
	write [2]int
}

// newWRBase resolves a register program's entry points: "read", and
// the entries w0 and w1 that write 0 and 1.
func newWRBase(m *Machine, name string, prog *isa.Program, w0, w1 string) wrBase {
	return wrBase{
		m: m, name: name, prog: prog,
		read:  prog.MustEntry("read"),
		write: [2]int{prog.MustEntry(w0), prog.MustEntry(w1)},
	}
}

// writeEntry returns the entry point that writes bit.
func (w *wrBase) writeEntry(bit int) int {
	if bit != 0 {
		return w.write[1]
	}
	return w.write[0]
}

// Name implements WeirdRegister.
func (w *wrBase) Name() string { return w.name }

// ReadRaw runs the register's read entry and classifies the latency.
func (w *wrBase) ReadRaw() (int, int64, error) {
	if err := w.m.run(w.prog, w.read); err != nil {
		return 0, 0, err
	}
	d := w.m.readDelta()
	bit := 0
	if (d < w.threshold) == w.fastIsOne {
		bit = 1
	}
	return bit, d, nil
}

// Read implements WeirdRegister.
func (w *wrBase) Read() (int, error) {
	bit, _, err := w.ReadRaw()
	return bit, err
}

// calibrateWR measures the read latency in both written states and sets
// the threshold midway between the medians. write drives the state,
// read samples it.
func (w *wrBase) calibrateWR(write func(int) error) error {
	const samples = 17
	var lo, hi []int64
	for _, bit := range []int{0, 1} {
		for i := 0; i < samples; i++ {
			if err := write(bit); err != nil {
				return err
			}
			if err := w.m.run(w.prog, w.read); err != nil {
				return err
			}
			d := w.m.readDelta()
			if bit == 0 {
				lo = append(lo, d)
			} else {
				hi = append(hi, d)
			}
		}
	}
	m0, m1 := stats.MedianInt64(lo), stats.MedianInt64(hi)
	if m0 == m1 {
		return fmt.Errorf("core: %s calibration found no timing gap (both %d)", w.name, m0)
	}
	w.threshold = (m0 + m1) / 2
	w.fastIsOne = m1 < m0
	return nil
}

// DCWR is the data-cache weird register of §3.1: the bit is the L1
// residency of one line; write 1 loads it, write 0 clflushes it, read
// times a load (which also sets the state to 1 — reading is invasive).
type DCWR struct {
	wrBase
	sym mem.Symbol
}

// NewDCWR builds a data-cache weird register.
func NewDCWR(m *Machine) (*DCWR, error) {
	id := m.nextGateID()
	sym := m.layout.AllocLine(fmt.Sprintf("wr%d.dc", id))
	b := isa.NewBuilder(m.codeRegion())
	b.Label("w1").Load(isa.R3, sym, 0).Fence().Halt()
	b.Label("w0").Clflush(sym, 0).Fence().Halt()
	b.Label("read").Rdtsc(isa.R10).Load(isa.R11, sym, 0).Rdtsc(isa.R12).Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	r := &DCWR{wrBase: newWRBase(m, "d-cache", prog, "w0", "w1"), sym: sym}
	if err := r.calibrateWR(r.Write); err != nil {
		return nil, err
	}
	return r, nil
}

// Write implements WeirdRegister.
func (r *DCWR) Write(bit int) error {
	err := r.m.run(r.prog, r.writeEntry(bit))
	return err
}

// Symbol exposes the backing line for circuit composition.
func (r *DCWR) Symbol() mem.Symbol { return r.sym }

// ICWR is the instruction-cache weird register: the bit is the L1I
// residency of a code line; write 1 executes the code, write 0 flushes
// it, read times its execution.
type ICWR struct {
	wrBase
}

// NewICWR builds an instruction-cache weird register.
func NewICWR(m *Machine) (*ICWR, error) {
	b := isa.NewBuilder(m.codeRegion())
	b.Label("w0").ClflushCode("body").Fence().Halt()
	b.Label("read").Rdtsc(isa.R10).Jmp("body")
	b.AlignLine()
	b.Label("body")
	for i := 0; i < 13; i++ {
		b.Nop()
	}
	b.Rdtsc(isa.R12).Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	r := &ICWR{wrBase: newWRBase(m, "i-cache", prog, "w0", "read")}
	if err := r.calibrateWR(r.Write); err != nil {
		return nil, err
	}
	return r, nil
}

// Write implements WeirdRegister: executing the body is the write-1
// (reading is the same operation, so Read also writes 1).
func (r *ICWR) Write(bit int) error {
	err := r.m.run(r.prog, r.writeEntry(bit))
	return err
}

// BPWR is the branch-direction-predictor weird register: the bit is the
// trained direction of one conditional branch; read executes the branch
// not-taken and times it — a misprediction costs the refill penalty.
type BPWR struct {
	wrBase
}

// NewBPWR builds a direction-predictor weird register.
func NewBPWR(m *Machine) (*BPWR, error) {
	b := isa.NewBuilder(m.codeRegion())
	// Training entries execute the branch with the desired direction.
	b.Label("w0").MovI(isa.R1, 0).Jmp("br") // taken (skip): logic 0
	b.Label("w1").MovI(isa.R1, 1).Jmp("br") // not taken: logic 1
	b.Label("read").MovI(isa.R1, 1).Rdtsc(isa.R10).Jmp("br")
	b.Label("br").Brz(isa.R1, "out")
	b.Label("fall").Rdtsc(isa.R12).Halt()
	b.Label("out").Rdtsc(isa.R12).Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	r := &BPWR{wrBase: newWRBase(m, "branch-predictor", prog, "w0", "w1")}
	if err := r.calibrateWR(r.Write); err != nil {
		return nil, err
	}
	return r, nil
}

// Write implements WeirdRegister: train the branch TrainIterations
// times in the desired direction.
func (r *BPWR) Write(bit int) error {
	entry := r.writeEntry(bit)
	for i := 0; i < r.m.TrainIterations(); i++ {
		if err := r.m.run(r.prog, entry); err != nil {
			return err
		}
	}
	return nil
}

// BTBWR is the branch-target-buffer weird register of Table 1: two
// unconditional jumps at BTB-aliasing addresses share one entry; which
// target the entry holds is the bit, read as the redirect latency of
// the first jump.
type BTBWR struct {
	wrBase
}

// NewBTBWR builds a BTB weird register.
func NewBTBWR(m *Machine) (*BTBWR, error) {
	btbEntries := m.cpu.Config().BTBSize
	base := m.codeRegionN(2 * btbEntries * isa.InstBytes / codeRegionSize)
	b := isa.NewBuilder(base)
	// Jump A→B at the region base; its alias A'→C exactly one BTB
	// period later shares the predictor entry.
	b.Label("jmpA").Jmp("targetB")
	b.Label("targetB").Halt()
	b.Label("read").Rdtsc(isa.R10).Jmp("jmpA2") // aliased site drives timing below
	b.PadTo(base + mem.Addr(btbEntries*isa.InstBytes))
	b.Label("jmpA2").Jmp("targetC")
	b.Label("targetC").Rdtsc(isa.R12).Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	r := &BTBWR{wrBase: newWRBase(m, "btb", prog, "jmpA", "jmpA2")}
	if err := r.calibrateWR(r.Write); err != nil {
		return nil, err
	}
	return r, nil
}

// Write implements WeirdRegister: executing one of the aliased jumps
// installs its target in the shared BTB entry.
func (r *BTBWR) Write(bit int) error {
	// jmpA installs target B, so the aliased read misses; jmpA2
	// installs target C, so the read predicts right.
	err := r.m.run(r.prog, r.writeEntry(bit))
	return err
}

// MulWR is the multiply-unit contention register of Table 1: write 1
// executes a burst of multiplies, raising unit pressure; read times a
// single multiply. It is volatile — pressure decays within a few
// hundred cycles (§3.1's volatility property).
type MulWR struct {
	wrBase
	idle int
}

// NewMulWR builds a multiplier-contention weird register.
func NewMulWR(m *Machine) (*MulWR, error) {
	b := isa.NewBuilder(m.codeRegion())
	b.Label("w1").MovI(isa.R4, 3).MovI(isa.R5, 5)
	for i := 0; i < 32; i++ {
		b.Mul(isa.R3, isa.R4, isa.R5)
	}
	b.Halt()
	b.Label("w0")
	for i := 0; i < 32; i++ {
		b.Nop()
	}
	b.Halt()
	b.Label("idle")
	for i := 0; i < 250; i++ {
		b.Nop()
	}
	b.Halt()
	b.Label("read").
		MovI(isa.R4, 3).
		MovI(isa.R5, 5).
		Fence().
		Rdtsc(isa.R10).
		Mul(isa.R11, isa.R4, isa.R5).
		Rdtsc(isa.R12).
		Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	r := &MulWR{wrBase: newWRBase(m, "mul-contention", prog, "w0", "w1"), idle: prog.MustEntry("idle")}
	if err := r.calibrateWR(r.Write); err != nil {
		return nil, err
	}
	return r, nil
}

// Write implements WeirdRegister.
func (r *MulWR) Write(bit int) error {
	err := r.m.run(r.prog, r.writeEntry(bit))
	return err
}

// Idle burns a few hundred cycles without touching the multiply unit,
// letting tests observe the register's decay.
func (r *MulWR) Idle() error {
	err := r.m.run(r.prog, r.idle)
	return err
}

// ROBWR is the reorder-buffer contention register of Table 1: write 1
// executes a long dependency chain that fills the ROB with waiting
// entries; read times a short burst of independent instructions, which
// stalls while the pressure persists. Volatile like MulWR.
type ROBWR struct {
	wrBase
	idle int
}

// NewROBWR builds a ROB-contention weird register.
func NewROBWR(m *Machine) (*ROBWR, error) {
	b := isa.NewBuilder(m.codeRegion())
	b.Label("w1").MovI(isa.R3, 1)
	for i := 0; i < 192; i++ {
		b.AddI(isa.R3, isa.R3, 1) // dependent chain: each waits for the last
	}
	b.Halt()
	b.Label("w0")
	for i := 0; i < 64; i++ {
		b.Nop()
	}
	b.Halt()
	b.Label("idle")
	for i := 0; i < 250; i++ {
		b.Nop()
	}
	b.Halt()
	b.Label("read").Rdtsc(isa.R10)
	for i := 0; i < 10; i++ {
		b.MovI(isa.Reg(uint8(isa.R3)+uint8(i%4)), int64(i))
	}
	b.Rdtsc(isa.R12).Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	r := &ROBWR{wrBase: newWRBase(m, "rob-contention", prog, "w0", "w1"), idle: prog.MustEntry("idle")}
	if err := r.calibrateWR(r.Write); err != nil {
		return nil, err
	}
	return r, nil
}

// Write implements WeirdRegister.
func (r *ROBWR) Write(bit int) error {
	err := r.m.run(r.prog, r.writeEntry(bit))
	return err
}

// Idle burns cycles so tests can observe decay.
func (r *ROBWR) Idle() error {
	err := r.m.run(r.prog, r.idle)
	return err
}

// Compile-time interface checks.
var (
	_ WeirdRegister = (*DCWR)(nil)
	_ WeirdRegister = (*ICWR)(nil)
	_ WeirdRegister = (*BPWR)(nil)
	_ WeirdRegister = (*BTBWR)(nil)
	_ WeirdRegister = (*MulWR)(nil)
	_ WeirdRegister = (*ROBWR)(nil)
)
