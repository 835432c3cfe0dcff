package cache

import (
	"fmt"
	"slices"
	"testing"

	"uwm/internal/mem"
	"uwm/internal/noise"
)

// refCache is the straightforward cache model the flat Cache replaced:
// nested per-set slices, a modulo set index, and the replacement policy
// behind an interface with one bool per tree-PLRU node. It is kept as
// an executable specification: TestCacheMatchesReference drives both
// with the same random operations and requires identical answers.
type refCache struct {
	cfg   Config
	tags  [][]mem.Addr
	valid [][]bool
	pol   refPolicy
	stats Stats
}

type refPolicy interface {
	Touch(s, w int)
	Victim(s int) int
	Reset()
}

type refLRU struct {
	ways  int
	stamp [][]uint64
	clock uint64
}

func (l *refLRU) Touch(s, w int) {
	l.clock++
	l.stamp[s][w] = l.clock
}

func (l *refLRU) Victim(s int) int {
	best, bestStamp := 0, l.stamp[s][0]
	for w := 1; w < l.ways; w++ {
		if l.stamp[s][w] < bestStamp {
			best, bestStamp = w, l.stamp[s][w]
		}
	}
	return best
}

func (l *refLRU) Reset() {
	for s := range l.stamp {
		clear(l.stamp[s])
	}
	l.clock = 0
}

type refTreePLRU struct {
	ways int
	bits [][]bool
}

func (t *refTreePLRU) Touch(s, w int) {
	node, lo, hi := 0, 0, t.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			t.bits[s][node] = true
			node, hi = 2*node+1, mid
		} else {
			t.bits[s][node] = false
			node, lo = 2*node+2, mid
		}
	}
}

func (t *refTreePLRU) Victim(s int) int {
	node, lo, hi := 0, 0, t.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if t.bits[s][node] {
			node, lo = 2*node+2, mid
		} else {
			node, hi = 2*node+1, mid
		}
	}
	return lo
}

func (t *refTreePLRU) Reset() {
	for s := range t.bits {
		clear(t.bits[s])
	}
}

func newRefCache(cfg Config) *refCache {
	c := &refCache{cfg: cfg, tags: make([][]mem.Addr, cfg.Sets), valid: make([][]bool, cfg.Sets)}
	for i := range c.tags {
		c.tags[i] = make([]mem.Addr, cfg.Ways)
		c.valid[i] = make([]bool, cfg.Ways)
	}
	if cfg.PLRU {
		t := &refTreePLRU{ways: cfg.Ways, bits: make([][]bool, cfg.Sets)}
		for i := range t.bits {
			t.bits[i] = make([]bool, cfg.Ways-1)
		}
		c.pol = t
	} else {
		l := &refLRU{ways: cfg.Ways, stamp: make([][]uint64, cfg.Sets)}
		for i := range l.stamp {
			l.stamp[i] = make([]uint64, cfg.Ways)
		}
		c.pol = l
	}
	return c
}

func (c *refCache) setIndex(addr mem.Addr) int {
	return int(uint64(addr.Line()) / mem.LineSize % uint64(c.cfg.Sets))
}

func (c *refCache) find(addr mem.Addr) (s, w int) {
	s = c.setIndex(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == addr.Line() {
			return s, w
		}
	}
	return s, -1
}

func (c *refCache) Access(addr mem.Addr) bool {
	s, w := c.find(addr)
	if w < 0 {
		c.stats.Misses++
		return false
	}
	c.pol.Touch(s, w)
	c.stats.Hits++
	return true
}

func (c *refCache) Insert(addr mem.Addr) (mem.Addr, bool) {
	s, w := c.find(addr)
	if w >= 0 {
		c.pol.Touch(s, w)
		return 0, false
	}
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.valid[s][w] {
			c.valid[s][w], c.tags[s][w] = true, addr.Line()
			c.pol.Touch(s, w)
			return 0, false
		}
	}
	w = c.pol.Victim(s)
	evicted := c.tags[s][w]
	c.tags[s][w] = addr.Line()
	c.pol.Touch(s, w)
	c.stats.Evictions++
	return evicted, true
}

func (c *refCache) Flush(addr mem.Addr) bool {
	s, w := c.find(addr)
	if w < 0 {
		return false
	}
	c.valid[s][w] = false
	c.stats.Flushes++
	return true
}

func (c *refCache) FlushAll() {
	for s := range c.valid {
		clear(c.valid[s])
	}
	c.pol.Reset()
}

func (c *refCache) SetContents(addr mem.Addr) []mem.Addr {
	s := c.setIndex(addr)
	var out []mem.Addr
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[s][w] {
			out = append(out, c.tags[s][w])
		}
	}
	return out
}

func (c *refCache) SetOccupancy(addr mem.Addr) int { return len(c.SetContents(addr)) }

// TestCacheMatchesReference drives the flat Cache and refCache with
// the same seeded random Access/Insert/Flush/FlushAll sequences, over
// both policies and power-of-two and other set counts, and requires
// identical hits, evictions, stats and set contents after every step.
// Each configuration runs two op mixes: uniform over a contended line
// pool, and one weighted toward repeating the last line, which is what
// instruction fetch does and what the repeat-hit touch skip (Cache.mru)
// serves. refCache touches on every hit, so the second mix checks that
// skip against a policy that never skips.
func TestCacheMatchesReference(t *testing.T) {
	for _, sets := range []int{64, 6, 1} {
		for _, ways := range []int{8, 4, 1} {
			for _, plru := range []bool{true, false} {
				cfg := Config{Name: "ref", Sets: sets, Ways: ways, Latency: 1, PLRU: plru}
				seed := uint64(sets*100 + ways*10)
				if plru {
					seed++
				}
				t.Run(fmt.Sprintf("sets=%d/ways=%d/plru=%v", sets, ways, plru), func(t *testing.T) {
					checkAgainstReference(t, cfg, seed, uniformAddrs(cfg))
					checkAgainstReference(t, cfg, seed+1000, repeatAddrs(cfg))
				})
			}
		}
	}
}

// addrSource draws the next operation's address from rng.
type addrSource func(rng *noise.RNG) mem.Addr

// uniformAddrs draws from a line pool a few times the cache's capacity,
// which keeps sets contended so victims are chosen often; addresses
// carry random in-line offsets, and a few are drawn from the whole
// address space.
func uniformAddrs(cfg Config) addrSource {
	lines := 3 * cfg.Sets * cfg.Ways
	return func(rng *noise.RNG) mem.Addr {
		if rng.Intn(16) == 0 {
			return mem.Addr(rng.Uint64() >> 16) // far lines: set index over the whole space
		}
		return mem.Addr(rng.Intn(lines)*mem.LineSize + rng.Intn(mem.LineSize))
	}
}

// repeatAddrs mostly repeats the previous address's line (at another
// offset in it). The rest of the time it moves to a set-mate of that
// line — another line of the same set, so inserts and flushes land
// next to the remembered way — or to a line of the uniform pool.
func repeatAddrs(cfg Config) addrSource {
	uniform := uniformAddrs(cfg)
	stride := mem.Addr(cfg.Sets * mem.LineSize)
	var last mem.Addr
	return func(rng *noise.RNG) mem.Addr {
		switch r := rng.Intn(10); {
		case r < 7:
		case r < 9:
			last += mem.Addr(1+rng.Intn(2*cfg.Ways)) * stride
		default:
			last = uniform(rng)
		}
		last = last.Line() + mem.Addr(rng.Intn(mem.LineSize))
		return last
	}
}

func checkAgainstReference(t *testing.T, cfg Config, seed uint64, next addrSource) {
	t.Helper()
	c, ref := New(cfg), newRefCache(cfg)
	rng := noise.NewRNG(seed)
	for step := 0; step < 20000; step++ {
		addr := next(rng)
		var op string
		switch r := rng.Intn(100); {
		case r < 45:
			op = "access"
			if got, want := c.Access(addr), ref.Access(addr); got != want {
				t.Fatalf("step %d Access(%#x) = %v, reference %v", step, uint64(addr), got, want)
			}
		case r < 85:
			op = "insert"
			ge, gd := c.Insert(addr)
			we, wd := ref.Insert(addr)
			if ge != we || gd != wd {
				t.Fatalf("step %d Insert(%#x) = (%#x, %v), reference (%#x, %v)",
					step, uint64(addr), uint64(ge), gd, uint64(we), wd)
			}
		case r < 99:
			op = "flush"
			if got, want := c.Flush(addr), ref.Flush(addr); got != want {
				t.Fatalf("step %d Flush(%#x) = %v, reference %v", step, uint64(addr), got, want)
			}
		default:
			op = "flushall"
			c.FlushAll()
			ref.FlushAll()
		}
		if c.stats != ref.stats {
			t.Fatalf("step %d %s: stats %+v, reference %+v", step, op, c.stats, ref.stats)
		}
		if got, want := c.SetContents(addr), ref.SetContents(addr); !slices.Equal(got, want) {
			t.Fatalf("step %d %s: set contents %#x, reference %#x", step, op, got, want)
		}
		if got, want := c.SetOccupancy(addr), ref.SetOccupancy(addr); got != want {
			t.Fatalf("step %d %s: occupancy %d, reference %d", step, op, got, want)
		}
		if got, want := c.SetIndex(addr), ref.setIndex(addr); got != want {
			t.Fatalf("step %d: set index %d, reference %d", step, got, want)
		}
	}
}

// refHierarchy is the inclusive hierarchy over refCaches with the plain
// rules: every fill is an Insert and every hit touches.
type refHierarchy struct {
	cfg          HierarchyConfig
	l1d, l1i, l2 *refCache
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1d: newRefCache(cfg.L1D), l1i: newRefCache(cfg.L1I), l2: newRefCache(cfg.L2)}
}

func (h *refHierarchy) load(l1 *refCache, lat1 int64, addr mem.Addr) (int64, Level) {
	if l1.Access(addr) {
		return lat1, LevelL1
	}
	if h.l2.Access(addr) {
		l1.Insert(addr)
		return lat1 + h.cfg.L2.Latency, LevelL2
	}
	if victim, evicted := h.l2.Insert(addr); evicted {
		h.l1d.Flush(victim)
		h.l1i.Flush(victim)
	}
	l1.Insert(addr)
	return lat1 + h.cfg.L2.Latency + h.cfg.MemLatency, LevelMem
}

func (h *refHierarchy) FlushData(addr mem.Addr) {
	h.l1d.Flush(addr)
	h.l1i.Flush(addr)
	h.l2.Flush(addr)
}

// TestHierarchyMatchesReference drives a Hierarchy and refHierarchy
// with the same seeded mix of instruction fetches, data loads, flushes
// and rare FlushAlls. Fetches walk code lines an instruction at a time
// and go through RepeatFetch first, as the CPU's fetch loop does; data
// loads draw from the same addresses, so they share sets with the
// code and evict it from L2. Every
// step must give the same latency and level, the same per-level Stats,
// and the same contents of the touched sets, so the victims match.
func TestHierarchyMatchesReference(t *testing.T) {
	small := HierarchyConfig{
		L1D:        Config{Name: "L1D", Sets: 4, Ways: 2, Latency: 4, PLRU: true},
		L1I:        Config{Name: "L1I", Sets: 4, Ways: 2, Latency: 1, PLRU: true},
		L2:         Config{Name: "L2", Sets: 8, Ways: 4, Latency: 14},
		MemLatency: 175,
	}
	for name, cfg := range map[string]HierarchyConfig{"small": small, "default": DefaultHierarchyConfig()} {
		t.Run(name, func(t *testing.T) {
			h, ref := NewHierarchy(cfg), newRefHierarchy(cfg)
			rng := noise.NewRNG(7)
			lines := 4 * cfg.L2.Sets * cfg.L2.Ways
			pc, repeats := mem.Addr(0), 0
			for step := 0; step < 50000; step++ {
				var (
					op         byte
					addr       mem.Addr
					lat, want  int64
					lvl, wantL Level
				)
				switch r := rng.Intn(100); {
				case r < 70:
					op = 'f'
					if rng.Intn(12) == 0 {
						pc = mem.Addr(rng.Intn(lines) * mem.LineSize) // a jump
					} else {
						pc += 4
					}
					addr = pc
					var ok bool
					if lat, ok = h.RepeatFetch(addr); ok {
						lvl = LevelL1
						repeats++
					} else {
						lat, lvl = h.FetchInst(addr)
					}
					want, wantL = ref.load(ref.l1i, cfg.L1I.Latency, addr)
				case r < 92:
					op = 'l'
					addr = mem.Addr(rng.Intn(lines)*mem.LineSize + rng.Intn(mem.LineSize))
					lat, lvl = h.LoadData(addr)
					want, wantL = ref.load(ref.l1d, cfg.L1D.Latency, addr)
				case r < 99:
					op = 'c'
					addr = pc
					if rng.Intn(2) == 0 {
						addr = mem.Addr(rng.Intn(lines) * mem.LineSize)
					}
					h.FlushData(addr)
					ref.FlushData(addr)
				default:
					op = 'a'
					h.FlushAll()
					for _, c := range []*refCache{ref.l1d, ref.l1i, ref.l2} {
						c.FlushAll()
					}
				}
				if lat != want || lvl != wantL {
					t.Fatalf("step %d %c(%#x) = %d cycles from %v, reference %d from %v", step, op, uint64(addr), lat, lvl, want, wantL)
				}
				for _, p := range []struct {
					c   *Cache
					ref *refCache
				}{{h.l1d, ref.l1d}, {h.l1i, ref.l1i}, {h.l2, ref.l2}} {
					if p.c.stats != p.ref.stats {
						t.Fatalf("step %d %c(%#x): %s stats %+v, reference %+v", step, op, uint64(addr), p.c.Config().Name, p.c.stats, p.ref.stats)
					}
					if got, want := p.c.SetContents(addr), p.ref.SetContents(addr); !slices.Equal(got, want) {
						t.Fatalf("step %d %c(%#x): %s set contents %#x, reference %#x", step, op, uint64(addr), p.c.Config().Name, got, want)
					}
				}
			}
			if repeats == 0 {
				t.Error("no fetch took the RepeatFetch path")
			}
			t.Logf("%d of 50000 steps were repeat fetches", repeats)
		})
	}
}
