package core

import (
	"fmt"

	"uwm/internal/isa"
	"uwm/internal/mem"
)

// The branch-predictor / instruction-cache gate family (paper §3.2,
// Figures 1 and 2). Each gate is a program with several entry points,
// run in sequence per activation:
//
//	train{i}_t / train{i}_nt — write the block's BP-WR by executing the
//	    gate's own branch with the desired direction (the paper's
//	    train_bp_t/train_bp_nt);
//	touch{i} / flushb{i}     — write the block's IC-WR by executing or
//	    clflushing the speculative body;
//	prep                     — reset outputs: flush (or pre-cache, for
//	    eviction gates) the output DC-WR and flush the branch-condition
//	    lines so the fire branch resolves slowly;
//	fire                     — execute the gate: the branch mispredicts
//	    (if the BP-WR holds 1), opening a speculative window whose
//	    length is the condition's DRAM latency; the body executes
//	    transiently only if its code is in the instruction cache;
//	read                     — timed load of the output DC-WR.
//
// The output value is computed by the microarchitecture alone: the fire
// section contains no architectural boolean instruction, and the store
// that sets the output line never commits.

// noInput marks a block register write that no gate input drives.
const noInput = -1

// bpBlockSpec describes one speculative block of a BP gate and wires
// its two weird registers to the gate's inputs.
type bpBlockSpec struct {
	// evict selects an eviction-set body (loads that push the output
	// line out of the hierarchy) instead of a store body.
	evict bool
	// trainIn is the input whose bit is written to the block's BP-WR:
	// 1 trains the branch not taken, so it later speculates into the
	// body; 0 trains it taken, skipping the body. noInput always trains
	// not taken.
	trainIn int
	// icIn is the input whose bit is written to the block's IC-WR: 1
	// executes the body, caching it so it runs transiently; 0 flushes
	// it, so the window is too short to fetch it. noInput keeps it hot.
	icIn int
}

// BPGate is a weird gate of the branch-predictor/instruction-cache
// family.
type BPGate struct {
	gateBase
	out       mem.Symbol
	brd       []mem.Symbol
	bodyLines []mem.Addr
	blocks    []bpBlockSpec
	prepCache bool // prep pre-caches the output (eviction gates)
	truth     func(in []int) int
	// Per-block entry points, resolved when the gate is built so
	// activations neither look up labels nor allocate.
	trainT, trainNT, touch, flushB []int
}

// Outputs returns 1: every BP gate has one output line.
func (g *BPGate) Outputs() int { return 1 }

// Golden returns the gate's reference truth value for the inputs.
func (g *BPGate) Golden(in []int) int { return g.truth(in) }

// Truth writes the reference truth value into out[0].
func (g *BPGate) Truth(in, out []int) { out[0] = g.truth(in) }

// Run performs one full activation and returns the output bit.
func (g *BPGate) Run(in ...int) (int, error) {
	bit, _, err := g.RunTimed(in...)
	return bit, err
}

// Activate is RunTimed writing into bits[0] and deltas[0].
func (g *BPGate) Activate(in, bits []int, deltas []int64) error {
	var err error
	bits[0], deltas[0], err = g.RunTimed(in...)
	return err
}

// RunTimed performs one activation and additionally returns the
// measured read latency in cycles (the raw data behind the KDE plots of
// Figures 7 and 8).
func (g *BPGate) RunTimed(in ...int) (int, int64, error) {
	if err := g.checkArity(in); err != nil {
		return 0, 0, err
	}
	gsp := g.m.BeginSpan(g.span)

	// Write the BP-WRs: execute each block's branch with the desired
	// direction, TrainIterations times.
	sp := g.m.BeginSpan(SpanTrain)
	for blk, spec := range g.blocks {
		if g.m.ns.TrainFail() {
			continue // training destroyed by aliasing activity
		}
		entry := g.trainNT[blk]
		if spec.trainIn != noInput && in[spec.trainIn] == 0 {
			entry = g.trainT[blk]
		}
		for i := 0; i < g.m.TrainIterations(); i++ {
			if err := g.m.run(g.prog, entry); err != nil {
				g.m.EndSpan(gsp)
				return 0, 0, err
			}
		}
	}
	g.m.EndSpan(sp)

	// Write the IC-WRs: execute or flush each block's body.
	sp = g.m.BeginSpan(SpanICWrite)
	for blk, spec := range g.blocks {
		entry := g.touch[blk]
		if spec.icIn != noInput && in[spec.icIn] == 0 {
			entry = g.flushB[blk]
		}
		if err := g.m.run(g.prog, entry); err != nil {
			g.m.EndSpan(gsp)
			return 0, 0, err
		}
	}
	g.m.EndSpan(sp)

	// Reset outputs and the branch-condition lines.
	sp = g.m.BeginSpan(SpanPrep)
	if err := g.m.run(g.prog, g.prep); err != nil {
		g.m.EndSpan(gsp)
		return 0, 0, err
	}
	g.m.EndSpan(sp)

	// Unrelated system activity may disturb the gate's lines here.
	sp = g.m.BeginSpan(SpanFire)
	for _, line := range g.bodyLines {
		g.m.perturbCode(line)
	}
	g.m.perturbData(g.out)

	if err := g.m.run(g.prog, g.fire); err != nil {
		g.m.EndSpan(gsp)
		return 0, 0, err
	}
	g.m.perturbData(g.out)
	g.m.EndSpan(sp)

	sp = g.m.BeginSpan(SpanRead)
	if err := g.m.run(g.prog, g.read); err != nil {
		g.m.EndSpan(gsp)
		return 0, 0, err
	}
	delta := g.m.readDelta()
	g.fires.Inc()
	g.readLat.Observe(float64(delta))
	bit := g.m.ToBit(delta)
	g.emitTimedRead(0, bit, delta, g.out.Addr)
	g.m.EndSpan(sp)
	g.m.EndSpan(gsp)
	return bit, delta, nil
}

// condReg returns the fire-section condition register for block blk.
func condReg(blk int) isa.Reg { return isa.Reg(uint8(isa.R1) + uint8(blk)) }

// buildBPGate assembles the multi-entry program shared by the whole
// family. Each block contributes a train pair, a touch/flush pair and a
// speculative body; prep and read are common.
func buildBPGate(m *Machine, name string, blocks []bpBlockSpec, prepCache bool, arity int, truth func([]int) int) (*BPGate, error) {
	id := m.nextGateID()
	tag := fmt.Sprintf("g%d.%s", id, name)

	out := m.layout.AllocLine(tag + ".out")
	// one holds the constant 1: training "not taken" loads the branch
	// condition from it, training "taken" loads from the zero-valued
	// condition line itself — in both cases through a freshly flushed
	// line, so every training iteration exercises the same slow-
	// resolving branch the gate fires with. This is what makes the
	// paper's non-TSX gates ~25× slower than the TSX family (Table 2).
	one := m.layout.AllocLine(tag + ".one")
	m.mem.Write64(one.Addr, 1)
	brd := make([]mem.Symbol, len(blocks))
	for i := range blocks {
		brd[i] = m.layout.AllocLine(fmt.Sprintf("%s.brd%d", tag, i))
	}
	var ev []mem.Symbol
	for i, blk := range blocks {
		if blk.evict {
			ways := m.cpu.Hierarchy().L2().Config().Ways
			ev = m.evictBase(out, ways, fmt.Sprintf("%s.b%d", tag, i))
			break // one eviction set per gate is all current gates need
		}
	}

	b := isa.NewBuilder(m.codeRegion())

	// Per-block training and IC-write entries. Training loads the
	// desired condition value through a flushed line so the branch it
	// executes resolves from DRAM — the same shape as the fire path.
	for i := range blocks {
		b.Label(fmt.Sprintf("train%d_t", i)).
			Clflush(brd[i], 0).
			Fence().
			Load(condReg(i), brd[i], 0).
			Jmp(fmt.Sprintf("br%d", i))
		b.Label(fmt.Sprintf("train%d_nt", i)).
			Clflush(one, 0).
			Fence().
			Load(condReg(i), one, 0).
			Jmp(fmt.Sprintf("br%d", i))
		b.Label(fmt.Sprintf("touch%d", i)).
			Jmp(fmt.Sprintf("body%d", i))
		b.Label(fmt.Sprintf("flushb%d", i)).
			ClflushCode(fmt.Sprintf("body%d", i)).
			Fence().
			Halt()
	}

	// prep: reset output (flush, or pre-cache for eviction gates) and
	// flush the branch-condition lines so the fire branch resolves
	// from DRAM, opening a wide speculative window. Eviction gates
	// also flush their conflict lines: with the whole set cold, the
	// fire's eight fills deterministically wrap the set and push the
	// freshly touched output out — independent of whatever recency
	// state earlier activations left behind.
	b.Label("prep")
	if prepCache {
		b.Load(isa.R11, out, 0)
		for _, e := range ev {
			b.Clflush(e, 0)
		}
	} else {
		b.Clflush(out, 0)
	}
	for i := range blocks {
		b.Clflush(brd[i], 0)
	}
	b.Fence().Halt()

	// fire: the gate itself.
	b.Label("fire").MovI(isa.R9, 42)
	for i, blk := range blocks {
		next := fmt.Sprintf("next%d", i)
		b.Load(condReg(i), brd[i], 0)
		b.Label(fmt.Sprintf("br%d", i)).
			Brz(condReg(i), next)
		b.AlignLine()
		b.Label(fmt.Sprintf("body%d", i))
		if blk.evict {
			for _, e := range ev {
				b.Load(isa.R3, e, 0)
			}
		} else {
			b.Store(out, 0, isa.R9)
		}
		b.Halt()
		b.AlignLine()
		b.Label(next)
		if i == len(blocks)-1 {
			b.Halt()
		}
	}

	// read: timed load of the output line.
	b.Label("read").
		Rdtsc(isa.R10).
		Load(isa.R11, out, 0).
		Rdtsc(isa.R12).
		Halt()

	prog, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: building %s: %w", name, err)
	}
	if prog.End() > prog.Base+codeRegionSize {
		return nil, fmt.Errorf("core: gate %s overflows its code region", name)
	}

	bodyLines := make([]mem.Addr, len(blocks))
	for i := range blocks {
		addr, err := prog.LabelAddr(fmt.Sprintf("body%d", i))
		if err != nil {
			return nil, err
		}
		bodyLines[i] = addr.Line()
	}

	g := &BPGate{
		gateBase:  newGateBase(m, name, "bp", arity, prog),
		out:       out,
		brd:       brd,
		bodyLines: bodyLines,
		blocks:    blocks,
		prepCache: prepCache,
		truth:     truth,
	}
	for i := range blocks {
		g.trainT = append(g.trainT, prog.MustEntry(fmt.Sprintf("train%d_t", i)))
		g.trainNT = append(g.trainNT, prog.MustEntry(fmt.Sprintf("train%d_nt", i)))
		g.touch = append(g.touch, prog.MustEntry(fmt.Sprintf("touch%d", i)))
		g.flushB = append(g.flushB, prog.MustEntry(fmt.Sprintf("flushb%d", i)))
	}
	return g, nil
}

// NewBPAnd builds the weird AND gate of Figure 1: one speculative block
// whose BP-WR is input b and whose IC-WR is input a. The output line is
// filled only when the branch mispredicts into the body and the body is
// already in the instruction cache.
func NewBPAnd(m *Machine) (*BPGate, error) {
	return buildBPGate(m, "AND", []bpBlockSpec{{trainIn: 1, icIn: 0}}, false, 2,
		func(in []int) int { return in[0] & in[1] },
	)
}

// NewBPOr builds the weird OR gate of Figure 2: two speculative blocks.
// The first branch is always mistrained and its body's IC state is input
// a; the second branch's BP-WR is input b and its body stays hot.
func NewBPOr(m *Machine) (*BPGate, error) {
	return buildBPGate(m, "OR", []bpBlockSpec{{trainIn: noInput, icIn: 0}, {trainIn: 1, icIn: noInput}}, false, 2,
		func(in []int) int { return in[0] | in[1] },
	)
}

// NewBPNand builds a weird NAND gate: the output line starts cached, and
// the speculative body is an eviction set that pushes it out of the
// hierarchy — so the output drops to 0 exactly when both inputs are 1.
// NAND gives the family functional completeness (§3.2).
func NewBPNand(m *Machine) (*BPGate, error) {
	return buildBPGate(m, "NAND", []bpBlockSpec{{evict: true, trainIn: 1, icIn: 0}}, true, 2,
		func(in []int) int { return 1 - in[0]&in[1] },
	)
}

// NewBPAndAndOr builds the composed (a AND b) OR (c AND d) gate the
// paper's full adder uses (§5.2): two speculative blocks, each an AND of
// its BP-WR and IC-WR, both storing to the same output line.
func NewBPAndAndOr(m *Machine) (*BPGate, error) {
	return buildBPGate(m, "AND_AND_OR", []bpBlockSpec{{trainIn: 1, icIn: 0}, {trainIn: 3, icIn: 2}}, false, 4,
		func(in []int) int { return in[0]&in[1] | in[2]&in[3] },
	)
}
