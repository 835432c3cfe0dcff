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

// Cycles returns the simulated duration of the run.
func (r Result) Cycles() int64 { return r.EndCycle - r.StartCycle }

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

// Mem returns the architectural memory.
func (c *CPU) Mem() *mem.Memory { return c.mem }

// Hierarchy returns the cache hierarchy (for probes by tests and the
// evaluation harness; gates only ever observe it through timing).
func (c *CPU) Hierarchy() *cache.Hierarchy { return c.hier }

// Predictor returns the direction predictor.
func (c *CPU) Predictor() branch.DirectionPredictor { return c.dir }

// BTB returns the branch target buffer.
func (c *CPU) BTB() *branch.BTB { return c.btb }

// Noise returns the noise source.
func (c *CPU) Noise() *noise.Source { return c.ns }

// Stats returns lifetime counters.
func (c *CPU) Stats() Stats { return c.stats }

// TSC returns the current cycle count.
func (c *CPU) TSC() int64 { return c.clock }

// Inflight returns a copy of the outstanding-fill table (line →
// completion cycle), a diagnostics probe for tests.
func (c *CPU) Inflight() map[mem.Addr]int64 {
	cp := make(map[mem.Addr]int64, len(c.inflight))
	for _, e := range c.inflight {
		cp[e.line] = e.done
	}
	return cp
}

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

// Observed reports whether a debugger is attached.
func (c *CPU) Observed() bool { return c.observed }

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
func (c *CPU) RunInto(prog *isa.Program, idx int, res *Result) error {
	*res = Result{StartCycle: c.clock}
	c.traced = c.sink != nil && trace.Enabled(c.sink)
	for {
		if idx < 0 || idx >= len(prog.Code) {
			return fmt.Errorf("cpu: control fell off program at index %d", idx)
		}
		if res.Steps >= c.cfg.MaxSteps {
			return ErrRunaway
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
				return errors.New("cpu: halt inside open transaction")
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
			return err
		}
		res.Steps++
		idx = next
	}
}

// step commits one instruction other than NOP and HALT, which RunInto
// commits itself, and returns the next instruction index.
func (c *CPU) step(prog *isa.Program, idx int, inst *isa.Inst, res *Result) (int, error) {
	cfg := &c.cfg
	switch inst.Op {
	case isa.MOVI:
		c.writeReg(inst.Dst, uint64(inst.Imm), c.clock+cfg.ALULatency)
		c.clock++

	case isa.MOV:
		c.writeReg(inst.Dst, c.regs[inst.Src1], maxi(c.clock, c.ready[inst.Src1])+cfg.ALULatency)
		c.clock++

	case isa.LOAD:
		addr := inst.SymAddr + mem.Addr(inst.Imm)
		lat := c.memAccess(addr, c.clock)
		done := c.clock + lat
		c.writeReg(inst.Dst, c.mem.Read64(addr), done)
		c.bump(done)
		c.clock++

	case isa.LOADR:
		addr := mem.Addr(c.regs[inst.Src1]) + mem.Addr(inst.Imm)
		start := maxi(c.clock, c.ready[inst.Src1])
		lat := c.memAccess(addr, start)
		done := start + lat
		c.writeReg(inst.Dst, c.mem.Read64(addr), done)
		c.bump(done)
		c.clock++

	case isa.ADDM:
		addr := inst.SymAddr + mem.Addr(inst.Imm)
		start := maxi(c.clock, c.ready[inst.Dst])
		lat := c.memAccess(addr, start)
		done := start + lat + cfg.ALULatency
		c.writeReg(inst.Dst, c.regs[inst.Dst]+c.mem.Read64(addr), done)
		c.bump(done)
		c.clock++

	case isa.STORE:
		addr := inst.SymAddr + mem.Addr(inst.Imm)
		c.commitStore(addr, c.regs[inst.Src1], inst.Addr)
		c.clock++

	case isa.STORR:
		addr := mem.Addr(c.regs[inst.Src1]) + mem.Addr(inst.Imm)
		c.commitStore(addr, c.regs[inst.Src2], inst.Addr)
		c.clock++

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR:
		start := maxi(c.clock, maxi(c.ready[inst.Src1], c.ready[inst.Src2]))
		c.writeReg(inst.Dst, alu(inst.Op, c.regs[inst.Src1], c.regs[inst.Src2]), start+cfg.ALULatency)
		c.clock++

	case isa.ADDI:
		start := maxi(c.clock, c.ready[inst.Src1])
		c.writeReg(inst.Dst, c.regs[inst.Src1]+uint64(inst.Imm), start+cfg.ALULatency)
		c.clock++

	case isa.SHL:
		start := maxi(c.clock, c.ready[inst.Src1])
		c.writeReg(inst.Dst, c.regs[inst.Src1]<<uint(inst.Imm&63), start+cfg.ALULatency)
		c.clock++

	case isa.SHR:
		start := maxi(c.clock, c.ready[inst.Src1])
		c.writeReg(inst.Dst, c.regs[inst.Src1]>>uint(inst.Imm&63), start+cfg.ALULatency)
		c.clock++

	case isa.MUL:
		start := maxi(c.clock, maxi(c.ready[inst.Src1], c.ready[inst.Src2]))
		lat := c.mulLatency()
		c.addMulPressure(1)
		done := start + lat
		c.writeReg(inst.Dst, c.regs[inst.Src1]*c.regs[inst.Src2], done)
		c.bump(done)
		c.clock++

	case isa.DIV:
		if c.regs[inst.Src2] == 0 {
			return c.fault(prog, idx, res)
		}
		start := maxi(c.clock, maxi(c.ready[inst.Src1], c.ready[inst.Src2]))
		done := start + cfg.DivLatency
		c.writeReg(inst.Dst, c.regs[inst.Src1]/c.regs[inst.Src2], done)
		c.bump(done)
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

// fault handles a divide-by-zero. Inside a transaction it triggers the
// post-fault transient window and aborts; outside it is a program error.
func (c *CPU) fault(prog *isa.Program, idx int, res *Result) (int, error) {
	if c.txn == nil {
		return 0, ErrFault
	}
	return c.abortTxn2(prog, idx, res), nil
}

// abortTxn2 aborts the current transaction after the faulting
// instruction at idx, first running the post-fault transient window over
// the following instructions (the paper's §4 mechanism).
func (c *CPU) abortTxn2(prog *isa.Program, idx int, res *Result) int {
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
	return c.abortTxn(prog, res, false)
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

// commitStore performs an architectural store: write-allocate cache
// fill, memory write, transaction logging, trace events.
func (c *CPU) commitStore(addr mem.Addr, v uint64, pc mem.Addr) {
	lat := c.memAccess(addr, c.clock)
	c.bump(c.clock + lat)
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

// memAccess performs a data-cache access issued at the given cycle and
// returns its latency, applying DRAM jitter and MSHR merging: an access
// to a line whose fill is still in flight completes when that fill does.
func (c *CPU) memAccess(addr mem.Addr, issue int64) int64 {
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
			return done - issue
		}
		// Entry drained — or the line was evicted after the original
		// fill (this access is a brand-new miss, re-registered below).
		// Without the presence check, a stale entry could service a
		// read of a line an eviction-set gate just pushed out, making
		// the gate misread its own output.
		c.removeInflight(i)
	}
	if lvl != cache.LevelL1 {
		c.inflight = append(c.inflight, mshr{line: line, done: issue + lat})
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

func alu(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	default:
		panic("cpu: not an ALU op")
	}
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
