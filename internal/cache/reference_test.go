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
					checkAgainstReference(t, cfg, seed)
				})
			}
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, seed uint64) {
	c, ref := New(cfg), newRefCache(cfg)
	rng := noise.NewRNG(seed)
	// A line pool a few times the cache's capacity keeps sets
	// contended, so victims are chosen often; addresses carry random
	// in-line offsets, and a few are drawn from the whole address space.
	lines := 3 * cfg.Sets * cfg.Ways
	for step := 0; step < 20000; step++ {
		addr := mem.Addr(rng.Intn(lines)*mem.LineSize + rng.Intn(mem.LineSize))
		if rng.Intn(16) == 0 {
			addr = mem.Addr(rng.Uint64() >> 16) // far lines: set index over the whole space
		}
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
		if c.Stats() != ref.stats {
			t.Fatalf("step %d %s: stats %+v, reference %+v", step, op, c.Stats(), ref.stats)
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
