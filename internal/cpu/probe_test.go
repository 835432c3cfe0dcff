package cpu

import (
	"uwm/internal/cache"
	"uwm/internal/mem"
)

// l1dHit reports whether addr's line is in L1D, probing with a load.
// The load fills the line on a miss, so a test probes last.
func l1dHit(c *CPU, addr mem.Addr) bool {
	_, lvl := c.hier.LoadData(addr)
	return lvl == cache.LevelL1
}

// Inflight returns a copy of the outstanding-fill table (line →
// completion cycle).
func (c *CPU) Inflight() map[mem.Addr]int64 {
	cp := make(map[mem.Addr]int64, len(c.inflight))
	for _, e := range c.inflight {
		cp[e.line] = e.done
	}
	return cp
}

// MulPressure returns the current (decayed) multiply-unit pressure.
func (c *CPU) MulPressure() float64 {
	return decayPressure(c.mulPressure, c.mulStamp, c.clock, c.cfg.MulPressureHalfLife, c.mulDecay)
}
