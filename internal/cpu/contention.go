package cpu

import (
	"math"
	"sync"

	"uwm/internal/isa"
)

// Functional-unit and reorder-buffer contention modelling. These back
// the contention-based weird registers of the paper's Table 1 ("mul
// func. units" and "ROB contention"): executing multiplies raises
// pressure on the multiply unit, which raises the latency of subsequent
// multiplies until the pressure decays; long dependency chains raise ROB
// pressure, stalling the front end. Both are volatile by construction —
// the stored bit evaporates after a few hundred cycles, the volatility
// property of §3.1.

// decayTableLen is how many integer gaps a decay table memoizes.
// Per-instruction updates decay over a few cycles, and the gaps left by
// serializing reads and between gate activations stay well under a
// thousand, so the math.Exp2 fallback is rare.
const decayTableLen = 1024

// decayTables holds one read-only decay table per half-life, shared by
// every CPU in the process: building one costs decayTableLen Exp2
// calls, which a per-CPU table would add to every machine's setup.
var decayTables struct {
	sync.Mutex
	byHalfLife map[float64][]float64
}

// decayTable returns the shared table t with t[dt] =
// Exp2(-dt/halfLife), or nil when halfLife is not positive (decay is
// then off, or NaN propagates through the Exp2 fallback).
func decayTable(halfLife float64) []float64 {
	if !(halfLife > 0) {
		return nil
	}
	decayTables.Lock()
	defer decayTables.Unlock()
	if t, ok := decayTables.byHalfLife[halfLife]; ok {
		return t
	}
	t := make([]float64, decayTableLen)
	for dt := range t {
		t[dt] = math.Exp2(-float64(dt) / halfLife)
	}
	if decayTables.byHalfLife == nil {
		decayTables.byHalfLife = make(map[float64][]float64)
	}
	decayTables.byHalfLife[halfLife] = t
	return t
}

// decayPressure applies exponential decay with the given half-life to a
// pressure value last updated at stamp, as of now. Pressure below the
// observability floor is snapped to zero, since no timing effect can see
// it. Callers decay on every fetched instruction, so the factor comes
// from table (decayTable(halfLife)): table[dt] is the very Exp2 value
// the fallback computes, which keeps the product bit-identical. Gaps
// past the table's end fall back to math.Exp2. Decay is applied per
// update, never batched: p·t[a]·t[b] is not p·t[a+b] in floating point.
func decayPressure(p float64, stamp, now int64, halfLife float64, table []float64) float64 {
	if q, ok := tableDecay(p, now-stamp, table); ok {
		return q
	}
	return decaySlow(p, now-stamp, halfLife)
}

// tableDecay is decayPressure's table path, small enough to inline into
// the per-instruction callers: it reports false for every case the
// table does not serve. A table exists only for a positive half-life,
// p ≥ 0.25 is false for NaN, and a gap of 0 multiplies by table[0] = 1,
// which leaves p as decaySlow does.
func tableDecay(p float64, dt int64, table []float64) (float64, bool) {
	if p >= 0.25 && uint64(dt) < uint64(len(table)) {
		return p * table[dt], true
	}
	return p, false
}

// decaySlow is decayPressure's complete rule over the gap dt.
func decaySlow(p float64, dt int64, halfLife float64) float64 {
	if p == 0 || halfLife <= 0 || dt <= 0 {
		return p
	}
	if p < 0.25 {
		return 0
	}
	return p * math.Exp2(-float64(dt)/halfLife)
}

// mulLatency returns the current multiply latency, including the
// contention surcharge.
func (c *CPU) mulLatency() int64 {
	c.mulPressure = decayPressure(c.mulPressure, c.mulStamp, c.clock, c.cfg.MulPressureHalfLife, c.mulDecay)
	c.mulStamp = c.clock
	extra := int64(c.mulPressure * c.cfg.MulContentionFactor)
	return c.cfg.MulLatency + extra
}

// addMulPressure records occupancy of the multiply unit.
func (c *CPU) addMulPressure(n float64) {
	c.mulPressure = decayPressure(c.mulPressure, c.mulStamp, c.clock, c.cfg.MulPressureHalfLife, c.mulDecay)
	c.mulStamp = c.clock
	c.mulPressure += n
}

// trackChain updates ROB pressure: a destination register that feeds the
// immediately following instruction extends a dependency chain, filling
// the reorder buffer with waiting entries. Zero pressure decays to
// itself from any stamp, so it is not decayed; the stamp still moves,
// as the pressure may rise from zero here.
func (c *CPU) trackChain(dst isa.Reg) {
	if p := c.robPressure; p != 0 {
		q, ok := tableDecay(p, c.clock-c.robStamp, c.robDecay)
		if !ok {
			q = decaySlow(p, c.clock-c.robStamp, c.cfg.ROBPressureHalfLife)
		}
		c.robPressure = q
	}
	c.robStamp = c.clock
	if c.hasLastDst && c.lastDst == dst {
		c.robPressure++
	}
	c.lastDst = dst
	c.hasLastDst = true
}

// robStall charges the front end proportionally to ROB pressure. It runs
// for every fetched instruction and inlines: zero pressure, the usual
// case, decays to zero and stalls nothing (for a finite
// ROBStallFactor), and the stamp it would move is read again only after
// trackChain, which sets it, has raised the pressure.
func (c *CPU) robStall() {
	if c.robPressure != 0 {
		c.stallROB()
	}
}

// stallROB is robStall for non-zero pressure: decayPressure with its
// table path inlined.
func (c *CPU) stallROB() {
	p, ok := tableDecay(c.robPressure, c.clock-c.robStamp, c.robDecay)
	if !ok {
		p = decaySlow(c.robPressure, c.clock-c.robStamp, c.cfg.ROBPressureHalfLife)
	}
	c.robPressure, c.robStamp = p, c.clock
	if c.cfg.ROBStallFactor > 0 {
		c.clock += int64(p * c.cfg.ROBStallFactor)
	}
}
