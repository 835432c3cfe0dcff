// Package core implements the paper's primary contribution: the
// microarchitectural weird machine (μWM). It provides
//
//   - weird registers (WR): storage entities encoded in
//     microarchitectural state — data-cache residency (DC-WR),
//     instruction-cache residency (IC-WR), branch-predictor training
//     state (BP-WR), BTB targets, and volatile contention registers
//     (§3.1, Table 1);
//   - weird gates (WG): code constructions whose logic emerges from
//     races between speculative-execution windows and cache-miss
//     latencies — the branch-predictor/instruction-cache family of
//     Figures 1 and 2, and the TSX post-fault family of Figure 3 and
//     §4.1;
//   - weird circuits (WC): gate ensembles whose intermediate values flow
//     through the microarchitecture only (§4).
//
// Every gate is assembled as an isa.Program and executed on the
// simulated CPU of package cpu; no gate's logic uses an architectural
// boolean instruction on the weird data, a property the test suite
// verifies by disassembly.
package core

import (
	"fmt"

	"uwm/internal/cpu"
	"uwm/internal/isa"
	"uwm/internal/mem"
	"uwm/internal/metrics"
	"uwm/internal/noise"
	"uwm/internal/stats"
	"uwm/internal/trace"
)

// Default address-space carve-up. Data and code live far apart; each
// gate receives its own code region and its own data lines.
//
// The data base is offset so that data lines occupy L2 sets starting at
// 512 while code lines (base ≡ set 0) grow upward from set 0: an
// eviction-set gate wraps its victim's entire L2 set, and with shared
// sets it would back-invalidate *code* lines of later gates, starving
// their transient windows. Keeping the ranges disjoint is the address-
// space planning the paper's skelly calls alignment management (§6.2);
// it holds for up to 32 KiB of hot gate code and 32 KiB of gate data
// per machine.
const (
	defaultDataBase mem.Addr = 0x0010_8000 // L2 set 512
	defaultCodeBase mem.Addr = 0x0400_0000 // L2 set 0

	// evictStride is the address stride between lines that alias in
	// both the L1D set index (stride 4 KiB) and the L2 set index
	// (stride 64 KiB): 64 KiB satisfies both. Eviction-set gates
	// (NOT/NAND) place their conflict lines at this stride.
	evictStride = 64 * 1024

	// codeRegionSize is the space reserved per gate program.
	codeRegionSize = 4096
)

// Options configures a Machine.
type Options struct {
	// Seed drives all randomness (noise and harness-level choices).
	Seed uint64
	// Noise selects the system-noise model; the zero value is a quiet,
	// deterministic machine. Use noise.Paper() for paper-calibrated
	// behaviour.
	Noise noise.Config
	// CPU overrides the execution-model parameters; the zero value
	// selects cpu.DefaultConfig().
	CPU *cpu.Config
	// TrainIterations is how many times a BP-WR write executes the
	// gate branch with the desired direction. Two suffice for a 2-bit
	// counter; the default of 100 mirrors the heavy mistraining loops
	// that make the paper's non-TSX gates ~25× slower than TSX ones
	// (Table 2). Skelly overrides it downward for throughput.
	TrainIterations int
	// Sink attaches an event sink when non-nil: a *trace.Recorder, a
	// file exporter, or several of them joined with trace.Tee.
	Sink trace.Sink
	// Metrics attaches a metrics registry when non-nil: the machine
	// registers its CPU, cache, branch and gate instruments on it.
	Metrics *metrics.Registry
	// HealthTap, when non-nil, receives only the machine's calibration
	// and timed-read events — the minimal feed a gate-health monitor
	// needs — regardless of whether a full trace sink is attached. The
	// tap deliberately bypasses the Enabled elision that keeps untraced
	// hot paths free: it never triggers per-instruction event assembly,
	// because the CPU core does not see it.
	HealthTap trace.Sink
}

// Machine owns the simulated hardware plus the calibrated timing
// threshold, and hands out code/data regions to gates. All gates built
// from one Machine share its caches and predictors, which is what lets
// them be composed into circuits.
type Machine struct {
	opts      Options
	mem       *mem.Memory
	layout    *mem.Layout
	cpu       *cpu.CPU
	ns        *noise.Source
	reg       *metrics.Registry
	codeNext  mem.Addr
	evictNext mem.Addr
	threshold int64
	gateSeq   int
	// runRes receives the counters of every run (see run).
	runRes cpu.Result

	// Calibration assets are built once and reused by Recalibrate: the
	// probe symbol and program cannot be rebuilt, as Layout.AllocLine
	// rejects duplicate names and codeRegion bump-allocates.
	calibProbe          mem.Symbol
	calibProg           *isa.Program
	calibMiss, calibHit int // calibProg's entry points
	calibCount          int64

	// healthTap receives calibration and timed-read events only (see
	// Options.HealthTap).
	healthTap trace.Sink

	// Profiling-span state (see spans.go): monotonically increasing span
	// ids and the stack of currently open frames.
	spanSeq   uint64
	spanStack []spanFrame
}

// NewMachine builds and calibrates a Machine.
func NewMachine(opts Options) (*Machine, error) {
	cfg := cpu.DefaultConfig()
	if opts.CPU != nil {
		cfg = *opts.CPU
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.TrainIterations == 0 {
		opts.TrainIterations = 100
	}
	ns := noise.NewSource(opts.Seed, opts.Noise)
	m := mem.New()
	c := cpu.New(cfg, m, ns)
	if opts.Sink != nil {
		c.SetSink(opts.Sink)
	}
	c.RegisterMetrics(opts.Metrics)
	mach := &Machine{
		opts:      opts,
		mem:       m,
		layout:    mem.NewLayout(defaultDataBase),
		cpu:       c,
		ns:        ns,
		reg:       opts.Metrics,
		codeNext:  defaultCodeBase,
		evictNext: defaultDataBase + 16*evictStride,
		healthTap: opts.HealthTap,
	}
	if err := mach.calibrate(); err != nil {
		return nil, fmt.Errorf("core: calibration failed: %w", err)
	}
	mach.reg.Gauge(MetricThreshold, "calibrated hit/miss timing boundary in cycles").
		Set(float64(mach.threshold))
	return mach, nil
}

// MustNewMachine is NewMachine panicking on error, for tests and
// examples with static configurations.
func MustNewMachine(opts Options) *Machine {
	m, err := NewMachine(opts)
	if err != nil {
		panic(err)
	}
	return m
}

// CPU returns the simulated processor.
func (m *Machine) CPU() *cpu.CPU { return m.cpu }

// Layout returns the data symbol table.
func (m *Machine) Layout() *mem.Layout { return m.layout }

// Mem returns the architectural memory.
func (m *Machine) Mem() *mem.Memory { return m.mem }

// Noise returns the machine's noise source.
func (m *Machine) Noise() *noise.Source { return m.ns }

// ReseedNoise repositions the machine's noise stream to the given
// seed. Machines have no Reset — microarchitectural state (caches,
// predictors, the TSC) accumulates for their whole life — but the
// noise stream can be re-pinned, which is what lets a worker pool
// derive per-job sub-seeds: a job's injected noise then depends only
// on its own seed, not on which jobs the machine ran before it.
func (m *Machine) ReseedNoise(seed uint64) { m.ns.Reseed(seed) }

// Threshold returns the calibrated hit/miss timing boundary in cycles
// (the paper's TIMING_THRESHOLD).
func (m *Machine) Threshold() int64 { return m.threshold }

// TrainIterations returns the configured BP-WR training count.
func (m *Machine) TrainIterations() int { return m.opts.TrainIterations }

// nextGateID returns a unique per-machine gate sequence number, used to
// namespace gate symbols and labels.
func (m *Machine) nextGateID() int {
	m.gateSeq++
	return m.gateSeq
}

// halfFrame is half the L2 set period (64 KiB): addresses in the lower
// half of each 64 KiB frame map to L2 sets 0–511, the upper half to
// 512–1023. Code stays in lower halves, data in upper halves, so the
// two can never share an L2 set — see the defaultDataBase comment.
const halfFrame = 32 * 1024

// codeRegion reserves a code region for one gate program and returns
// its base address.
func (m *Machine) codeRegion() mem.Addr {
	return m.codeRegionN(1)
}

// codeRegionN reserves n contiguous code regions (for programs that
// need deliberate long-distance padding, e.g. BTB aliasing). A
// contiguous program must fit in the lower half of a 64 KiB frame to
// preserve the code/data L2-set split; allocations that would cross
// into an upper half skip to the next frame. Programs needing more than
// 32 KiB of truly contiguous code (only the BTB register does, and its
// padding is never executed from the upper halves) opt out via
// codeRegionRaw.
func (m *Machine) codeRegionN(n int) mem.Addr {
	size := mem.Addr(n) * codeRegionSize
	if size > halfFrame {
		panic(fmt.Sprintf("core: contiguous code region of %d bytes exceeds the %d-byte conflict-free half-frame", size, halfFrame))
	}
	base := m.codeNext
	if base%(2*halfFrame)+size > halfFrame {
		base = (base + 2*halfFrame - 1) &^ (2*halfFrame - 1)
	}
	m.codeNext = base + size
	return base
}

// codeRegionRaw reserves contiguous space without the half-frame
// constraint, for programs whose padding regions are never fetched.
func (m *Machine) codeRegionRaw(n int) mem.Addr {
	base := m.codeNext
	m.codeNext += mem.Addr(n) * codeRegionSize
	// Realign the allocator for subsequent constrained callers.
	if m.codeNext%(2*halfFrame) > halfFrame {
		m.codeNext = (m.codeNext + 2*halfFrame - 1) &^ (2*halfFrame - 1)
	}
	return base
}

// evictBase reserves an address range for one gate's eviction set:
// count lines at evictStride spacing aliasing with victim's cache sets.
func (m *Machine) evictBase(victim mem.Symbol, count int, tag string) []mem.Symbol {
	syms := make([]mem.Symbol, count)
	base := m.evictNext
	m.evictNext += mem.Addr((count + 1) * evictStride)
	for i := range syms {
		addr := base + mem.Addr(i*evictStride)
		// Keep the victim's line offset so every line shares its L1D
		// and L2 set index.
		addr = addr&^mem.Addr(evictStride-1) | (victim.Addr & mem.Addr(evictStride-1))
		syms[i] = m.layout.AllocAt(fmt.Sprintf("%s.ev%d", tag, i), addr, mem.LineSize)
	}
	return syms
}

// run executes prog from instruction index entry, propagating
// simulator errors. Gates resolve their entry labels to indices when
// they are built (prog.MustEntry), so activations never look a label up.
// No caller reads the run's counters, so they go to the machine's one
// scratch Result rather than being copied out of every run.
func (m *Machine) run(prog *isa.Program, entry int) error {
	return m.cpu.RunInto(prog, entry, &m.runRes)
}

// ToBit converts a measured read latency to a logic value: faster than
// the threshold means the line was cached, i.e. logic 1.
func (m *Machine) ToBit(delta int64) int {
	if delta < m.threshold {
		return 1
	}
	return 0
}

// perturbData models unrelated system activity touching one of the
// gate's data lines between pipeline steps: rarely an eviction (1→0) or
// a stray fill (0→1).
func (m *Machine) perturbData(sym mem.Symbol) {
	if m.ns.Evicted() {
		m.cpu.Hierarchy().FlushData(sym.Addr)
	}
	if m.ns.StrayFill() {
		m.cpu.Hierarchy().LoadData(sym.Addr)
	}
}

// perturbCode models the same for a gate's code line.
func (m *Machine) perturbCode(line mem.Addr) {
	if m.ns.Evicted() {
		m.cpu.Hierarchy().FlushInst(line)
	}
	if m.ns.StrayFill() {
		m.cpu.Hierarchy().FetchInst(line)
	}
}

// calibrate measures hit and miss read latencies on a probe line and
// places the logic threshold midway between their medians. Medians make
// the calibration robust to interrupt outliers. The probe line and
// program are allocated on first use and reused on recalibration.
func (m *Machine) calibrate() error {
	if m.calibProg == nil {
		m.calibProbe = m.layout.AllocLine("calib.probe")
		b := isa.NewBuilder(m.codeRegion())
		b.Label("miss").
			Clflush(m.calibProbe, 0).
			Fence().
			Rdtsc(isa.R10).
			Load(isa.R11, m.calibProbe, 0).
			Rdtsc(isa.R12).
			Halt()
		b.Label("hit").
			Load(isa.R11, m.calibProbe, 0).
			Fence().
			Rdtsc(isa.R10).
			Load(isa.R11, m.calibProbe, 0).
			Rdtsc(isa.R12).
			Halt()
		prog, err := b.Build()
		if err != nil {
			return err
		}
		m.calibProg = prog
		m.calibMiss, m.calibHit = prog.MustEntry("miss"), prog.MustEntry("hit")
	}
	const samples = 33
	miss := make([]int64, 0, samples)
	hit := make([]int64, 0, samples)
	for i := 0; i < samples; i++ {
		if err := m.run(m.calibProg, m.calibMiss); err != nil {
			return err
		}
		miss = append(miss, int64(m.cpu.Reg(isa.R12)-m.cpu.Reg(isa.R10)))
		if err := m.run(m.calibProg, m.calibHit); err != nil {
			return err
		}
		hit = append(hit, int64(m.cpu.Reg(isa.R12)-m.cpu.Reg(isa.R10)))
	}
	mh := stats.MedianInt64(hit)
	mm := stats.MedianInt64(miss)
	if mh >= mm {
		return fmt.Errorf("core: calibration found no timing gap (hit=%d miss=%d)", mh, mm)
	}
	m.threshold = (mh + mm) / 2
	m.calibCount++
	e := trace.Event{
		Kind:  trace.KindCalibration,
		Cycle: m.cpu.TSC(),
		Value: uint64(m.threshold),
		Text:  fmt.Sprintf("hit=%d miss=%d n=%d", mh, mm, m.calibCount),
	}
	if m.healthTap != nil {
		m.healthTap.Emit(e)
	}
	if s := m.cpu.Sink(); trace.Enabled(s) {
		s.Emit(e)
	}
	return nil
}

// Recalibrate re-runs the timing calibration in place, repositioning the
// hit/miss threshold to the machine's current behaviour — the recovery
// action a health monitor takes when the margin distribution has drifted.
//
// Determinism contract: the calibration runs are pinned to the machine's
// original seed (so a recalibration draws exactly the noise the initial
// calibration drew) and the noise stream's position is restored
// afterwards, so callers that reseed per job (the engine's sub-seed
// scheme) observe no perturbation of subsequent noise.
func (m *Machine) Recalibrate() error {
	saved := m.ns.RNG().State()
	m.ns.Reseed(m.opts.Seed)
	err := m.calibrate()
	m.ns.RNG().SetState(saved)
	if err != nil {
		return fmt.Errorf("core: recalibration failed: %w", err)
	}
	m.reg.Gauge(MetricThreshold, "calibrated hit/miss timing boundary in cycles").
		Set(float64(m.threshold))
	m.reg.Counter(MetricRecalibrations, "threshold recalibrations after initial calibration").Inc()
	return nil
}

// Calibrations returns how many times the machine has calibrated its
// threshold, including the initial calibration at construction.
func (m *Machine) Calibrations() int64 { return m.calibCount }

// readDelta extracts the timed-read latency convention shared by all
// gate read sections: R12 and R10 hold the two timestamps.
func (m *Machine) readDelta() int64 {
	return int64(m.cpu.Reg(isa.R12) - m.cpu.Reg(isa.R10))
}
