package cache

import "uwm/internal/mem"

// Level identifies where in the hierarchy an access was served.
type Level int

// Hierarchy levels, fastest first.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelMem
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "MEM"
	default:
		return "?"
	}
}

// HierarchyConfig describes the simulated two-level cache hierarchy plus
// memory latency. The defaults mirror a Skylake-class client part, the
// paper's experimental platform (§6.1).
type HierarchyConfig struct {
	L1D        Config
	L1I        Config
	L2         Config
	MemLatency int64 // DRAM access latency in cycles (before jitter)
}

// DefaultHierarchyConfig returns the Skylake-like geometry used across
// the repository: 32 KiB 8-way L1D and L1I, 256 KiB (modelled as 1024×8)
// shared inclusive L2, 4/14/175-cycle latencies. The DRAM latency is
// calibrated so that a timed flushed-line read (which also pays the
// ~30-cycle rdtscp overhead) measures ≈224 cycles, the median of the
// paper's Tables 6 and 7.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:        Config{Name: "L1D", Sets: 64, Ways: 8, Latency: 4, PLRU: true},
		L1I:        Config{Name: "L1I", Sets: 64, Ways: 8, Latency: 1, PLRU: true},
		L2:         Config{Name: "L2", Sets: 1024, Ways: 8, Latency: 14},
		MemLatency: 175,
	}
}

// Hierarchy is the two-level inclusive cache hierarchy. Data and
// instruction L1s are split; L2 is unified. All μWM timing behaviour
// flows from the latencies returned here.
type Hierarchy struct {
	cfg HierarchyConfig
	l1d *Cache
	l1i *Cache
	l2  *Cache
}

// NewHierarchy builds an empty hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		l1d: New(cfg.L1D),
		l1i: New(cfg.L1I),
		l2:  New(cfg.L2),
	}
}

// L2 returns the unified level-2 cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// LoadData performs a data access to addr: it returns the latency in
// cycles and the level that served it, and fills all missed levels
// (inclusive hierarchy). Stores use it too: the model is
// write-allocate, and a store is how a speculative body sets an output
// DC-WR ("out_c = 42").
func (h *Hierarchy) LoadData(addr mem.Addr) (int64, Level) {
	if h.l1d.Access(addr) {
		return h.cfg.L1D.Latency, LevelL1
	}
	if h.l2.Access(addr) {
		h.l1d.fill(addr)
		return h.cfg.L1D.Latency + h.cfg.L2.Latency, LevelL2
	}
	h.fillL2(addr)
	h.l1d.fill(addr)
	return h.cfg.L1D.Latency + h.cfg.L2.Latency + h.cfg.MemLatency, LevelMem
}

// FetchInst performs an instruction fetch of the line containing addr.
func (h *Hierarchy) FetchInst(addr mem.Addr) (int64, Level) {
	if h.l1i.Access(addr) {
		return h.cfg.L1I.Latency, LevelL1
	}
	if h.l2.Access(addr) {
		h.l1i.fill(addr)
		return h.cfg.L1I.Latency + h.cfg.L2.Latency, LevelL2
	}
	h.fillL2(addr)
	h.l1i.fill(addr)
	return h.cfg.L1I.Latency + h.cfg.L2.Latency + h.cfg.MemLatency, LevelMem
}

// RepeatFetch is FetchInst's fast path for a fetch from the L1I line
// the previous fetch hit, when that hit was the cache's latest
// replacement-policy touch (Cache.mru): the lookup is then a hit that
// needs neither a set scan nor a touch. It counts the hit and returns
// the L1I latency, or reports false and leaves the fetch to FetchInst.
// It is small enough to inline into the CPU's fetch loop.
func (h *Hierarchy) RepeatFetch(addr mem.Addr) (int64, bool) {
	if c := h.l1i; c.mru == addr.Line()|lineValid {
		c.stats.Hits++
		return h.cfg.L1I.Latency, true
	}
	return 0, false
}

// fillL2 fills a line that just missed in L2 and, because the hierarchy
// is inclusive, back-invalidates any line the fill evicted from both
// L1s. The eviction-set weird gates (NOT/NAND) depend on this: filling
// a victim's L2 set pushes the victim all the way out of the hierarchy.
// (An L1 fill needs no back-invalidate, since L2 is the superset.)
func (h *Hierarchy) fillL2(addr mem.Addr) {
	if victim, evicted := h.l2.fill(addr); evicted {
		h.l1d.Flush(victim)
		h.l1i.Flush(victim)
	}
}

// FlushData removes addr's line from every level, the semantics of
// clflush. Inclusion requires flushing L1s when L2 loses the line.
func (h *Hierarchy) FlushData(addr mem.Addr) {
	h.l1d.Flush(addr)
	h.l1i.Flush(addr)
	h.l2.Flush(addr)
}

// FlushInst removes a code line from every level (clflush on code).
func (h *Hierarchy) FlushInst(addr mem.Addr) { h.FlushData(addr) }

// FlushAll empties every level.
func (h *Hierarchy) FlushAll() {
	h.l1d.FlushAll()
	h.l1i.FlushAll()
	h.l2.FlushAll()
}
