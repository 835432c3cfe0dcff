package cpu

import (
	"uwm/internal/isa"
	"uwm/internal/mem"
	"uwm/internal/trace"
)

// speculate executes the transient path starting at idx in dataflow
// order between start and deadline cycles. This single routine is the
// engine behind both weird-gate families:
//
//   - wrong-path execution after a branch misprediction (deadline =
//     branch resolution time, i.e. when the flushed condition load
//     returns from DRAM), and
//   - post-fault transient execution inside a TSX region (deadline =
//     fault time + TSXWindow).
//
// Timing rules (the paper's race conditions, made explicit):
//
//   - instruction fetch is sequential; a fetch that completes after the
//     deadline starves the rest of the path (this is the IC-WR input:
//     a flushed gate body never executes);
//   - an instruction *issues* once its fetch is done and its source
//     registers are ready; issue at or before the deadline is what
//     makes its cache side effect land — a memory request launched
//     inside the window completes in the cache even if the data comes
//     back after the squash;
//   - a source produced by a load that could not issue is never ready,
//     so dependants transitively starve (this is how a flushed DC-WR
//     input kills the pointer-chase chain of a TSX gate);
//   - architectural state (registers, memory) is never modified; stores
//     only exercise their write-allocate cache fill.
//
// Dataflow ops are issued, computed and timed by execute, as committed
// ones are; only the register file (a shadow copy), the deadline and
// what becomes of the result differ.
func (c *CPU) speculate(prog *isa.Program, idx int, start, deadline int64, res *Result) {
	res.SpecWindows++
	c.stats.SpecWindows++
	c.histSpec.Observe(float64(deadline - start))
	c.record(trace.KindSpecStart, 0, 0, uint64(deadline-start), "window open")

	var specRegs [isa.NumRegs]uint64 = c.regs
	var ready [isa.NumRegs]int64
	for i := range ready {
		ready[i] = start
		if c.ready[i] > start {
			ready[i] = c.ready[i]
		}
	}

	sfc := start // speculative fetch clock
	count := 0

loop:
	for idx >= 0 && idx < len(prog.Code) && count < c.cfg.MaxSpecInsts {
		inst := &prog.Code[idx]
		count++

		// Transient fetch fills the I-cache like any other fetch.
		if lat, ok := c.hier.RepeatFetch(inst.Addr); ok {
			sfc += lat
		} else {
			sfc += c.fetchLatency(inst.Addr)
		}
		if sfc > deadline {
			break // fetch starved: body was not in the instruction cache
		}
		if c.traced {
			c.record(trace.KindSpecExec, inst.Addr, 0, 0, prog.Text(idx))
		}
		res.SpecInsts++
		c.stats.SpecInsts++

		switch inst.Op {
		case isa.NOP:
			// nothing

		case isa.HALT, isa.XEND, isa.XABORT:
			break loop

		case isa.MOVI, isa.MOV, isa.LOAD, isa.LOADR, isa.ADDM, isa.ADD, isa.ADDI, isa.SUB,
			isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.MUL, isa.DIV:
			if inst.Op == isa.DIV && specRegs[inst.Src2] == 0 {
				break loop // a fault in the shadow of the window stops it
			}
			v, done, _, ok := c.execute(inst, &specRegs, &ready, sfc, deadline)
			if !ok {
				ready[inst.Dst] = neverReady // its dependants starve
				break
			}
			specRegs[inst.Dst], ready[inst.Dst] = v, done

		case isa.STORE, isa.STORR:
			// Write-allocate fill only; no architectural write.
			if addr, _, t := storeOperands(inst, &specRegs, &ready, sfc); t <= deadline {
				c.memAccess(addr, t, deadline)
			}

		case isa.CLF, isa.CLFL:
			// clflush is ordered and never executes transiently.

		case isa.RDTSC:
			ready[inst.Dst] = sfc
			specRegs[inst.Dst] = uint64(sfc)

		case isa.FENCE:
			for _, r := range ready {
				if r < neverReady && r > sfc {
					sfc = r
				}
			}

		case isa.BRZ, isa.BRNZ:
			// Nested speculation is not modelled: follow the resolved
			// direction when the condition is ready inside the window,
			// the predicted one otherwise.
			taken := specRegs[inst.Src1] == 0
			if inst.Op == isa.BRNZ {
				taken = !taken
			}
			if ready[inst.Src1] > deadline {
				taken = c.dir.Predict(inst.Addr)
			}
			if taken {
				idx = inst.TargetIdx
				continue
			}

		case isa.JMP:
			idx = inst.TargetIdx
			continue

		case isa.CALL:
			specRegs[inst.Dst] = uint64(inst.Addr + isa.InstBytes)
			ready[inst.Dst] = sfc
			idx = inst.TargetIdx
			continue

		case isa.RET:
			// Follow the link value when it is known inside the
			// window; an unresolved return target stalls the path.
			if ready[inst.Src1] > deadline {
				break loop
			}
			target, err := indexOf(prog, mem.Addr(specRegs[inst.Src1]))
			if err != nil {
				break loop
			}
			idx = target
			continue

		case isa.XBEGIN:
			// A transactional begin on the wrong path has no effect.
		}
		idx++
	}

	c.record(trace.KindSpecEnd, 0, 0, uint64(count), "window closed")
}
