package cpu

import (
	"errors"
	"fmt"
	"math"

	"uwm/internal/branch"
	"uwm/internal/cache"
	"uwm/internal/isa"
	"uwm/internal/mem"
	"uwm/internal/metrics"
	"uwm/internal/noise"
	"uwm/internal/trace"
)

// ErrFault is returned when a fault (divide by zero) occurs outside a
// transactional region.
var ErrFault = errors.New("cpu: fault outside transaction")

// ErrRunaway is returned when a program exceeds Config.MaxSteps.
var ErrRunaway = errors.New("cpu: program exceeded step limit")

// neverReady marks a register whose producing instruction could not
// issue inside its speculative window: dependants starve.
const neverReady = math.MaxInt64 / 4

// noDeadline is the committed path's deadline: a committed instruction
// always issues.
const noDeadline = math.MaxInt64

// Result reports one Run call's outcome and counters.
type Result struct {
	// Entry is the label Run started at; RunAt and RunInto leave it
	// empty.
	Entry          string
	Steps          int   // committed instructions
	StartCycle     int64 // TSC at entry
	EndCycle       int64 // TSC at halt
	Mispredicts    int
	SpecWindows    int // speculative windows opened
	SpecInsts      int // instructions executed transiently
	TxCommits      int
	TxAborts       int // all aborts (designed + spurious)
	SpuriousAborts int // aborts injected by the noise model
}

// transaction is one open TSX region. A CPU owns one record and reuses
// it for every region, so entering a transaction allocates nothing.
type transaction struct {
	regs     [isa.NumRegs]uint64
	ready    [isa.NumRegs]int64
	writes   []memWrite
	abortIdx int
	// events buffers architectural trace events produced inside the
	// region: they become visible at XEND and vanish on abort. This is
	// what a debugger or tracer actually gets to see — the paper's §4
	// point that an aborted transaction's body is unobservable ("the
	// debugger would see the XBEGIN instruction, then the next
	// instruction would be the beginning of the abort handler").
	events []trace.Event
}

type memWrite struct {
	addr mem.Addr
	old  uint64
}

// mshr is one outstanding line fill: the line and the absolute cycle
// its fill completes.
type mshr struct {
	line mem.Addr
	done int64
}

// CPU is the simulated processor. State — caches, predictors, TSC,
// contention — persists across Run calls, which is what lets a weird
// machine stage its computation as a sequence of small program runs
// (train, flush, fire, read) over shared microarchitectural state.
type CPU struct {
	cfg  Config
	regs [isa.NumRegs]uint64
	// ready[r] is the absolute cycle at which r's current value is
	// available to consumers; loads complete asynchronously.
	ready [isa.NumRegs]int64

	mem  *mem.Memory
	hier *cache.Hierarchy
	dir  branch.DirectionPredictor
	btb  *branch.BTB
	rsb  *branch.RSB

	clock   int64 // front-end clock; also the TSC
	horizon int64 // completion time of the slowest in-flight instruction

	mulPressure float64
	mulStamp    int64
	robPressure float64
	robStamp    int64
	lastDst     isa.Reg
	hasLastDst  bool
	// mulDecay and robDecay are the shared decay tables for the two
	// configured half-lives (see decayTable).
	mulDecay, robDecay []float64

	// inflight holds the pending line fills, at most one entry per
	// line. It models MSHR merging: a second access to a line whose
	// miss is still in flight completes when the fill arrives rather
	// than magically hitting — without this, the TSX AND chain of
	// Figure 3 (whose add reuses an operand another chain is already
	// fetching) would be wrongly fast. Only a handful of fills are ever
	// outstanding at once, so a slice scan beats a map.
	inflight []mshr

	// txn is the open transaction (nil outside one); it always points
	// at txnRec.
	txn    *transaction
	txnRec transaction
	// observed models an attached debugger or single-stepping tracer:
	// transactional regions abort the moment they begin.
	observed bool
	ns       *noise.Source
	sink     trace.Sink
	// traced caches trace.Enabled(sink) for the current run: a sink
	// changes state only between runs (a flight-recorder tap switches
	// captures between jobs), so it is read once per run rather than
	// once per event. Hot emit sites test it before calling record,
	// so an untraced instruction costs a branch, not a call.
	traced bool
	stats  Stats
	// flushes counts executed clflush instructions, the event the HPC
	// detector's flush rule rates. It sits outside Stats because the
	// cache levels' flush counters only see flushes that found their
	// line, and Stats' printed form is pinned by the golden test.
	flushes uint64
	// histSpec, when attached, observes every speculative window's
	// length in cycles — the distribution that decides whether gate
	// bodies fit their windows.
	histSpec *metrics.Histogram
}

// Stats accumulates lifetime counters across runs.
type Stats struct {
	Committed      uint64
	Mispredicts    uint64
	SpecWindows    uint64
	SpecInsts      uint64
	TxBegins       uint64
	TxCommits      uint64
	TxAborts       uint64
	SpuriousAborts uint64
	ObservedAborts uint64
	MSHRMerges     uint64
}

// New builds a CPU over the given memory with the given noise source.
// A nil source gets a quiet, deterministic one. It panics on a
// configuration Validate rejects, as cache.NewTreePLRU does on more
// than 64 ways.
func New(cfg Config, m *mem.Memory, ns *noise.Source) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.normalize()
	if ns == nil {
		ns = noise.NewSource(1, noise.Quiet())
	}
	c := &CPU{
		cfg:      cfg,
		mem:      m,
		hier:     cache.NewHierarchy(cfg.Hierarchy),
		btb:      branch.NewBTB(cfg.BTBSize),
		rsb:      branch.NewRSB(cfg.RSBDepth),
		ns:       ns,
		mulDecay: decayTable(cfg.MulPressureHalfLife),
		robDecay: decayTable(cfg.ROBPressureHalfLife),
	}
	if cfg.UseGShare {
		c.dir = branch.NewGShare(cfg.PredictorSize, cfg.GShareHistoryBits)
	} else {
		c.dir = branch.NewBimodal(cfg.PredictorSize)
	}
	return c
}

// Config returns the model parameters.
func (c *CPU) Config() Config { return c.cfg }

// Hierarchy returns the cache hierarchy (for probes by tests and the
// evaluation harness; gates only ever observe it through timing).
func (c *CPU) Hierarchy() *cache.Hierarchy { return c.hier }

// Stats returns lifetime counters.
func (c *CPU) Stats() Stats { return c.stats }

// TSC returns the current cycle count.
func (c *CPU) TSC() int64 { return c.clock }

// findInflight returns the index of line's pending fill, or -1.
func (c *CPU) findInflight(line mem.Addr) int {
	for i, e := range c.inflight {
		if e.line == line {
			return i
		}
	}
	return -1
}

// removeInflight deletes pending fill i; the table is unordered.
func (c *CPU) removeInflight(i int) {
	last := len(c.inflight) - 1
	c.inflight[i] = c.inflight[last]
	c.inflight = c.inflight[:last]
}

// dropInflight forgets line's pending fill, if any.
func (c *CPU) dropInflight(line mem.Addr) {
	if i := c.findInflight(line); i >= 0 {
		c.removeInflight(i)
	}
}

// Reg returns the architectural value of r.
func (c *CPU) Reg(r isa.Reg) uint64 { return c.regs[r] }

// SetReg sets the architectural value of r (harness use).
func (c *CPU) SetReg(r isa.Reg, v uint64) {
	c.regs[r] = v
	c.ready[r] = c.clock
}

// SetSink attaches an event sink (nil detaches). A Recorder, a file
// sink, or a trace.Tee of several all work.
func (c *CPU) SetSink(s trace.Sink) { c.sink = s }

// Sink returns the attached sink, possibly nil.
func (c *CPU) Sink() trace.Sink { return c.sink }

// SetObserved attaches or detaches the modelled debugger: while true,
// every transactional region aborts on entry.
func (c *CPU) SetObserved(on bool) { c.observed = on }

// record emits an event when a live sink is attached. Architectural
// events produced inside an open transaction are buffered and only
// reach the sink if the transaction commits.
func (c *CPU) record(k trace.Kind, pc, addr mem.Addr, val uint64, text string) {
	if !c.traced {
		return
	}
	e := trace.Event{Kind: k, Cycle: c.clock, PC: uint64(pc), Addr: uint64(addr), Value: val, Text: text}
	if c.txn != nil && k.Architectural() && k != trace.KindTxBegin {
		c.txn.events = append(c.txn.events, e)
		return
	}
	c.sink.Emit(e)
}

// Run executes prog from the given entry label until HALT, returning
// per-run counters. Architectural register values persist across calls,
// as does all microarchitectural state.
func (c *CPU) Run(prog *isa.Program, entry string) (Result, error) {
	idx, err := prog.Entry(entry)
	if err != nil {
		return Result{}, err
	}
	res, err := c.RunAt(prog, idx)
	res.Entry = entry
	return res, err
}

// RunAt is Run from instruction index idx, for callers that resolved
// their entry labels once (prog.Entry) rather than on every run.
func (c *CPU) RunAt(prog *isa.Program, idx int) (Result, error) {
	var res Result
	err := c.RunInto(prog, idx, &res)
	return res, err
}

// RunInto is RunAt writing the run's counters into res, which it resets
// first: callers that run many short programs and read few counters
// keep one Result rather than copy one out of every run.
//
// A run that returns an error while a transaction is open (HALT inside
// the region, ErrRunaway, control falling off the program, a step
// error) rolls the region back as an abort does: its memory writes,
// registers and buffered events are discarded and the CPU leaves the
// run with no region open. The abort handler does not run.
func (c *CPU) RunInto(prog *isa.Program, idx int, res *Result) error {
	*res = Result{StartCycle: c.clock}
	c.traced = c.sink != nil && trace.Enabled(c.sink)
	for {
		if idx < 0 || idx >= len(prog.Code) {
			return c.failRun(fmt.Errorf("cpu: control fell off program at index %d", idx))
		}
		if res.Steps >= c.cfg.MaxSteps {
			return c.failRun(ErrRunaway)
		}
		inst := &prog.Code[idx]

		// Instruction fetch. Most fetches repeat the line the last one
		// hit, which RepeatFetch serves without a call.
		if lat, ok := c.hier.RepeatFetch(inst.Addr); ok {
			c.clock += lat
		} else {
			c.clock += c.fetchLatency(inst.Addr)
		}
		c.robStall()

		if inst.Op == isa.HALT {
			if c.txn != nil {
				return c.failRun(errors.New("cpu: halt inside open transaction"))
			}
			if c.traced {
				c.record(trace.KindCommit, inst.Addr, 0, 0, prog.Text(idx))
			}
			res.Steps++
			res.EndCycle = c.clock
			c.stats.Committed += uint64(res.Steps)
			return nil
		}

		// Record the commit before executing: if this instruction
		// faults and aborts a transaction, the buffered event dies
		// with the region, exactly like the retirement that never
		// happened. (Guarded: even memoized, disassembly is a call.)
		if c.traced {
			c.record(trace.KindCommit, inst.Addr, 0, 0, prog.Text(idx))
		}
		if inst.Op == isa.NOP {
			// NOPs never reach step: gate programs pad every aligned
			// block and settle every timed read with runs of them, so
			// they commit here without a call.
			c.clock++
			res.Steps++
			idx++
			continue
		}
		next, err := c.step(prog, idx, inst, res)
		if err != nil {
			res.EndCycle = c.clock
			return c.failRun(err)
		}
		res.Steps++
		idx = next
	}
}

// failRun closes the region a failing run leaves open, undoing its
// memory writes and registers and dropping its buffered events, and
// returns err.
func (c *CPU) failRun(err error) error {
	if t := c.txn; t != nil {
		c.txn = nil
		for i := len(t.writes) - 1; i >= 0; i-- {
			c.mem.Write64(t.writes[i].addr, t.writes[i].old)
		}
		c.regs, c.ready = t.regs, t.ready
	}
	return err
}

// step commits one instruction other than NOP and HALT, which RunInto
// commits itself, and returns the next instruction index.
func (c *CPU) step(prog *isa.Program, idx int, inst *isa.Inst, res *Result) (int, error) {
	cfg := &c.cfg
	switch inst.Op {
	case isa.MOVI, isa.MOV, isa.LOAD, isa.LOADR, isa.ADDM, isa.ADD, isa.ADDI, isa.SUB,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.MUL, isa.DIV:
		if inst.Op == isa.DIV && c.regs[inst.Src2] == 0 {
			return c.divideFault(prog, idx, res)
		}
		v, done, slow, _ := c.execute(inst, &c.regs, &c.ready, c.clock, noDeadline)
		c.writeReg(inst.Dst, v, done)
		if slow {
			c.bump(done)
		}
		c.clock++

	case isa.STORE, isa.STORR:
		addr, v, issue := storeOperands(inst, &c.regs, &c.ready, c.clock)
		c.commitStore(addr, v, issue, inst.Addr)
		c.clock++

	case isa.CLF:
		addr := inst.SymAddr + mem.Addr(inst.Imm)
		c.hier.FlushData(addr)
		c.dropInflight(addr.Line())
		c.flushes++
		c.record(trace.KindCacheFlush, inst.Addr, addr, 0, "clflush")
		c.clock += cfg.FlushLatency

	case isa.CLFL:
		addr := prog.Code[inst.TargetIdx].Addr.Line()
		c.hier.FlushInst(addr)
		c.dropInflight(addr.Line())
		c.flushes++
		if c.traced {
			c.record(trace.KindCacheFlush, inst.Addr, addr, 0, prog.Text(idx))
		}
		c.clock += cfg.FlushLatency

	case isa.BRZ, isa.BRNZ:
		return c.branch(prog, idx, inst, res), nil

	case isa.JMP:
		target := prog.Code[inst.TargetIdx].Addr
		if pred, ok := c.btb.Lookup(inst.Addr); !ok || pred != target {
			c.clock += cfg.BTBMissPenalty
		} else {
			c.clock++
		}
		c.btb.Update(inst.Addr, target)
		return inst.TargetIdx, nil

	case isa.CALL:
		target := prog.Code[inst.TargetIdx].Addr
		ret := inst.Addr + isa.InstBytes
		c.rsb.Push(ret)
		c.writeReg(inst.Dst, uint64(ret), c.clock+cfg.ALULatency)
		if pred, ok := c.btb.Lookup(inst.Addr); !ok || pred != target {
			c.clock += cfg.BTBMissPenalty
		} else {
			c.clock++
		}
		c.btb.Update(inst.Addr, target)
		return inst.TargetIdx, nil

	case isa.RET:
		actual := mem.Addr(c.regs[inst.Src1])
		retIdx, err := indexOf(prog, actual)
		if err != nil {
			return 0, err
		}
		if pred, ok := c.rsb.Pop(); ok && pred == actual {
			c.clock++
		} else {
			// Return-stack mispredict: refill like a branch.
			c.clock += cfg.MispredictPenalty
		}
		return retIdx, nil

	case isa.RDTSC:
		c.serialize()
		if extra, hit := c.ns.Outlier(); hit {
			c.clock += extra
			c.record(trace.KindNoise, inst.Addr, 0, uint64(extra), "interrupt outlier")
		}
		v := c.clock + c.ns.TimerJitter()
		if v < 0 {
			v = 0
		}
		c.writeReg(inst.Dst, uint64(v), c.clock+cfg.RdtscLatency)
		c.clock += cfg.RdtscLatency
		c.horizon = c.clock

	case isa.FENCE:
		c.serialize()
		c.clock++

	case isa.XBEGIN:
		return c.xbegin(prog, idx, inst, res)

	case isa.XEND:
		if c.txn == nil {
			return 0, errors.New("cpu: xend outside transaction")
		}
		committed := c.txn.events
		c.txn = nil
		if c.traced {
			for _, e := range committed {
				c.sink.Emit(e)
			}
		}
		c.stats.TxCommits++
		res.TxCommits++
		c.record(trace.KindTxEnd, inst.Addr, 0, 0, "commit")
		c.clock += cfg.XEndLatency

	case isa.XABORT:
		if c.txn == nil {
			return 0, errors.New("cpu: xabort outside transaction")
		}
		// Explicit abort: no post-fault transient window.
		return c.abortTxn(prog, res, false), nil

	default:
		return 0, fmt.Errorf("cpu: unknown opcode %v", inst.Op)
	}
	return idx + 1, nil
}

// divideFault handles a divide by zero at idx. Outside a transaction it
// is a program error. Inside one it runs the post-fault transient window
// over the following instructions (the paper's §4 mechanism) and then
// aborts the transaction.
func (c *CPU) divideFault(prog *isa.Program, idx int, res *Result) (int, error) {
	if c.txn == nil {
		return 0, ErrFault
	}
	window := c.cfg.TSXWindow + c.ns.WindowJitter()
	if c.ns.ChainBreak() {
		// The fault was detected on a warm path and the window
		// collapsed before dependent loads could issue — the main
		// error source of TSX gates (Table 8's accuracy band).
		window = 0
	}
	if window < 0 {
		window = 0
	}
	c.speculate(prog, idx+1, c.clock, c.clock+window, res)
	return c.abortTxn(prog, res, false), nil
}

// abortTxn rolls back the open transaction and redirects to its abort
// handler. spurious marks noise-injected aborts for the stats.
func (c *CPU) abortTxn(prog *isa.Program, res *Result, spurious bool) int {
	t := c.txn
	c.txn = nil
	// Roll back memory writes in reverse order, then registers.
	for i := len(t.writes) - 1; i >= 0; i-- {
		c.mem.Write64(t.writes[i].addr, t.writes[i].old)
	}
	c.regs = t.regs
	c.ready = t.ready
	c.clock += c.cfg.TSXAbortPenalty
	for r := range c.ready {
		if c.ready[r] > c.clock {
			c.ready[r] = c.clock
		}
	}
	c.horizon = c.clock
	c.stats.TxAborts++
	res.TxAborts++
	if spurious {
		c.stats.SpuriousAborts++
		res.SpuriousAborts++
	}
	c.record(trace.KindTxAbort, prog.Code[t.abortIdx].Addr, 0, 0, "abort")
	return t.abortIdx
}

// xbegin opens a transaction, possibly scheduling a spurious abort.
func (c *CPU) xbegin(prog *isa.Program, idx int, inst *isa.Inst, res *Result) (int, error) {
	if c.txn != nil {
		return 0, errors.New("cpu: nested transactions are not supported")
	}
	t := &c.txnRec
	t.regs, t.ready, t.abortIdx = c.regs, c.ready, inst.TargetIdx
	t.writes, t.events = t.writes[:0], t.events[:0]
	c.txn = t
	c.stats.TxBegins++
	c.clock += c.cfg.XBeginLatency
	if c.traced {
		c.record(trace.KindTxBegin, inst.Addr, 0, 0, prog.Text(idx))
	}
	if c.observed {
		// A debugger single-stepping the region is a side effect and
		// forces an abort: observation destroys the computation (§4's
		// anti-debug property).
		c.stats.ObservedAborts++
		return c.abortTxn(prog, res, false), nil
	}
	if c.ns.SpuriousAbort() {
		// An external event (interrupt, conflicting access) kills the
		// transaction before its body runs: no transient window, no
		// weird computation. Table 8 counts these.
		return c.abortTxn(prog, res, true), nil
	}
	return idx + 1, nil
}

// branch commits a conditional branch: predict, detect misprediction,
// open the speculative window sized by the condition's readiness, and
// train the predictor with the outcome.
func (c *CPU) branch(prog *isa.Program, idx int, inst *isa.Inst, res *Result) int {
	taken := c.regs[inst.Src1] == 0
	if inst.Op == isa.BRNZ {
		taken = !taken
	}
	pred := c.dir.Predict(inst.Addr)
	issue := c.clock
	resolve := maxi(issue, c.ready[inst.Src1])

	if pred != taken {
		res.Mispredicts++
		c.stats.Mispredicts++
		if resolve > issue {
			// The wrong path executes transiently until the branch
			// resolves; its cache effects persist.
			deadline := resolve + c.ns.WindowJitter()
			if deadline > issue {
				wrong := idx + 1
				if pred {
					wrong = inst.TargetIdx
				}
				c.speculate(prog, wrong, issue, deadline, res)
			}
		}
		c.clock = resolve + c.cfg.MispredictPenalty
	} else {
		c.clock++
	}
	c.dir.Update(inst.Addr, taken)
	if taken {
		return inst.TargetIdx
	}
	return idx + 1
}

// execute times and computes one dataflow instruction — MOVI, MOV, the
// loads, ADDM, the ALU ops, MUL and DIV — over the register file regs,
// whose values become available at the cycles in ready. Both execution
// paths call it: step with the architectural file and noDeadline,
// speculate with its shadow file and the window's deadline. The
// instruction issues at the later of at and its sources' ready cycles;
// when that is past deadline, ok is false and nothing else happens.
// Otherwise it performs the data access or occupies the multiply unit
// and returns the value and the cycle it is ready. slow marks a result
// from the memory system or the multiply or divide unit rather than the
// ALU, which the committed path's completion horizon waits for.
//
// A deadline is always below neverReady, so an issue at or before it
// means every source was ready: the dependants of a transient load that
// could not issue starve. DIV's caller has already checked its divisor,
// since what a divide by zero does is the caller's rule.
func (c *CPU) execute(inst *isa.Inst, regs *[isa.NumRegs]uint64, ready *[isa.NumRegs]int64, at, deadline int64) (v uint64, done int64, slow, ok bool) {
	a, b := regs[inst.Src1], regs[inst.Src2]
	t1 := maxi(at, ready[inst.Src1]) // issue cycle of a one-source op
	t2 := maxi(t1, ready[inst.Src2]) // and of a two-source op
	t := t2
	switch inst.Op {
	case isa.MOVI:
		t, v = at, uint64(inst.Imm)
	case isa.MOV:
		t, v = t1, a
	case isa.ADDI:
		t, v = t1, a+uint64(inst.Imm)
	case isa.SHL:
		t, v = t1, a<<uint(inst.Imm&63)
	case isa.SHR:
		t, v = t1, a>>uint(inst.Imm&63)
	case isa.ADD:
		v = a + b
	case isa.SUB:
		v = a - b
	case isa.AND:
		v = a & b
	case isa.OR:
		v = a | b
	case isa.XOR:
		v = a ^ b
	case isa.LOAD, isa.LOADR:
		addr := inst.SymAddr + mem.Addr(inst.Imm)
		if t = at; inst.Op == isa.LOADR {
			addr, t = mem.Addr(a)+mem.Addr(inst.Imm), t1
		}
		if t > deadline {
			return 0, 0, false, false
		}
		return c.mem.Read64(addr), t + c.memAccess(addr, t, deadline), true, true
	case isa.ADDM:
		// The destination is also the source.
		if t = maxi(at, ready[inst.Dst]); t > deadline {
			return 0, 0, false, false
		}
		addr := inst.SymAddr + mem.Addr(inst.Imm)
		lat := c.memAccess(addr, t, deadline)
		return regs[inst.Dst] + c.mem.Read64(addr), t + lat + c.cfg.ALULatency, true, true
	case isa.MUL:
		if t > deadline {
			return 0, 0, false, false
		}
		lat := c.mulLatency()
		c.addMulPressure(1) // transient MULs occupy the unit too
		return a * b, t + lat, true, true
	case isa.DIV:
		return a / b, t + c.cfg.DivLatency, true, t <= deadline
	default:
		panic("cpu: not a dataflow op: " + inst.Op.String())
	}
	return v, t + c.cfg.ALULatency, false, t <= deadline
}

// storeOperands returns a store's address, the value it stores and the
// cycle its write-allocate access issues: at, or later when a STORR's
// address register is not yet ready. No store waits for its value.
func storeOperands(inst *isa.Inst, regs *[isa.NumRegs]uint64, ready *[isa.NumRegs]int64, at int64) (mem.Addr, uint64, int64) {
	if inst.Op == isa.STORR {
		return mem.Addr(regs[inst.Src1]) + mem.Addr(inst.Imm), regs[inst.Src2], maxi(at, ready[inst.Src1])
	}
	return inst.SymAddr + mem.Addr(inst.Imm), regs[inst.Src1], at
}

// commitStore performs an architectural store issued at the given cycle:
// write-allocate cache fill, memory write, transaction logging, trace
// events.
func (c *CPU) commitStore(addr mem.Addr, v uint64, issue int64, pc mem.Addr) {
	c.bump(issue + c.memAccess(addr, issue, noDeadline))
	if c.txn != nil {
		c.txn.writes = append(c.txn.writes, memWrite{addr: addr &^ 7, old: c.mem.Read64(addr)})
	}
	c.mem.Write64(addr, v)
	// Stores inside a transaction become architecturally visible only
	// at XEND; record() buffers them against the open transaction.
	c.record(trace.KindMemWrite, pc, addr, v, "")
}

// fetchLatency performs an instruction fetch of the line containing
// addr, charging the decode-restart penalty for DRAM-served fetches.
func (c *CPU) fetchLatency(addr mem.Addr) int64 {
	lat, lvl := c.hier.FetchInst(addr)
	if lvl == cache.LevelMem {
		lat += c.cfg.IFetchMissPenalty
	}
	return lat
}

// memAccess performs a data-cache access issued at the given cycle by an
// instruction executing against deadline, and returns its latency,
// applying DRAM jitter and MSHR merging: an access to a line whose fill
// is still in flight completes when that fill does. A transient access
// (any deadline but noDeadline) is also traced as a fill: the line it
// brings in is all of it that outlives the squash.
func (c *CPU) memAccess(addr mem.Addr, issue, deadline int64) int64 {
	line := addr.Line()
	lat, lvl := c.hier.LoadData(addr)
	if lvl == cache.LevelMem {
		lat += c.ns.MemJitter() + c.ns.MemDelta()
		if lat < 1 {
			lat = 1
		}
	}
	if i := c.findInflight(line); i >= 0 {
		if done := c.inflight[i].done; done > issue && lvl == cache.LevelL1 {
			// The line is present but its fill is still in flight
			// (this access hit an MSHR): it completes when the fill
			// arrives, not at L1 latency. This is what keeps the TSX
			// AND chain honest when another chain already requested an
			// operand (Figure 3's ordering).
			c.stats.MSHRMerges++
			lat = done - issue
		} else {
			// Entry drained — or the line was evicted after the
			// original fill (this access is a brand-new miss,
			// re-registered below). Without the presence check, a
			// stale entry could service a read of a line an
			// eviction-set gate just pushed out, making the gate
			// misread its own output.
			c.removeInflight(i)
		}
	}
	if lvl != cache.LevelL1 {
		c.inflight = append(c.inflight, mshr{line: line, done: issue + lat})
	}
	if c.traced && deadline != noDeadline {
		c.record(trace.KindCacheFill, 0, addr, uint64(lat), "transient fill")
	}
	return lat
}

// writeReg sets a register's architectural value and readiness.
func (c *CPU) writeReg(r isa.Reg, v uint64, readyAt int64) {
	c.regs[r] = v
	c.ready[r] = readyAt
	c.trackChain(r)
	if c.traced {
		c.record(trace.KindRegWrite, 0, 0, v, r.String())
	}
}

// bump advances the completion horizon.
func (c *CPU) bump(done int64) {
	if done > c.horizon {
		c.horizon = done
	}
}

// serialize waits for all in-flight work (lfence;rdtscp semantics).
// Every pending fill has completed afterwards, so the MSHR set empties.
func (c *CPU) serialize() {
	if c.horizon > c.clock {
		c.clock = c.horizon
	}
	live := c.inflight[:0]
	for _, e := range c.inflight {
		if e.done > c.clock {
			live = append(live, e)
		}
	}
	c.inflight = live
}

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// indexOf maps a code address back to its instruction index.
func indexOf(prog *isa.Program, addr mem.Addr) (int, error) {
	if addr < prog.Base || addr >= prog.End() || (addr-prog.Base)%isa.InstBytes != 0 {
		return 0, fmt.Errorf("cpu: return to %#x outside program", uint64(addr))
	}
	return int((addr - prog.Base) / isa.InstBytes), nil
}
