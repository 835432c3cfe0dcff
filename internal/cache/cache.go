// Package cache models the set-associative cache hierarchy the μWM
// computes with. Weird registers store bits as the presence or absence of
// a line in a cache; weird gates read them back as the latency of a load.
// The model therefore tracks presence, replacement state and per-level
// latency, but not data contents (data lives in package mem — caches in
// this simulator are a pure timing structure, which is exactly the aspect
// the paper exploits).
package cache

import (
	"fmt"

	"uwm/internal/mem"
)

// The replacement policies are the two found in the paper's target
// parts, LRU and tree-PLRU. The LRU-state weird registers in Table 1
// rely on their recency state being real.

// LRU is a true least-recently-used policy.
type LRU struct {
	ways  int
	stamp []uint64 // last-touch clock per way, indexed set*ways+way
	clock uint64
}

// NewLRU returns an LRU policy for sets×ways.
func NewLRU(sets, ways int) *LRU {
	return &LRU{ways: ways, stamp: make([]uint64, sets*ways)}
}

// Touch records a hit on way w of set s.
func (l *LRU) Touch(s, w int) {
	l.clock++
	l.stamp[s*l.ways+w] = l.clock
}

// Victim returns the least recently used way of set s.
func (l *LRU) Victim(s int) int {
	stamp := l.stamp[s*l.ways : (s+1)*l.ways]
	best := 0
	for w := 1; w < len(stamp); w++ {
		if stamp[w] < stamp[best] {
			best = w
		}
	}
	return best
}

// Reset clears all recency state.
func (l *LRU) Reset() {
	clear(l.stamp)
	l.clock = 0
}

// TreePLRU is the binary-tree pseudo-LRU policy used by Intel L1 caches.
// Ways must be a power of two, at most 64.
//
// Each set's ways-1 tree nodes are packed into one word, node n (heap
// order: children of n are 2n+1 and 2n+2) at bit n; a set bit means
// the right half below that node is the older one. Touching a way
// points every node on its root-to-leaf path away from it, which is
// one and-not and one or with that way's precomputed masks.
type TreePLRU struct {
	ways int
	bits []uint64 // per set
	set  []uint64 // per way: path nodes Touch sets (way in the left half)
	clr  []uint64 // per way: path nodes Touch clears (way in the right half)
}

// NewTreePLRU returns a tree-PLRU policy for sets×ways.
func NewTreePLRU(sets, ways int) *TreePLRU {
	if ways&(ways-1) != 0 {
		panic(fmt.Sprintf("cache: tree-PLRU needs power-of-two ways, got %d", ways))
	}
	if ways > 64 {
		panic(fmt.Sprintf("cache: tree-PLRU supports at most 64 ways, got %d", ways))
	}
	t := &TreePLRU{
		ways: ways,
		bits: make([]uint64, sets),
		set:  make([]uint64, ways),
		clr:  make([]uint64, ways),
	}
	for w := 0; w < ways; w++ {
		node, lo, hi := 0, 0, ways
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if w < mid {
				t.set[w] |= 1 << node // point away: right half is older
				node, hi = 2*node+1, mid
			} else {
				t.clr[w] |= 1 << node
				node, lo = 2*node+2, mid
			}
		}
	}
	return t
}

// Touch records a hit on way w of set s: flip tree nodes away from w.
func (t *TreePLRU) Touch(s, w int) {
	t.bits[s] = t.bits[s]&^t.clr[w] | t.set[w]
}

// Victim returns the way to evict from set s: follow tree nodes toward
// the pseudo-least-recently-used way.
func (t *TreePLRU) Victim(s int) int {
	bits := t.bits[s]
	node, lo, hi := 0, 0, t.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits&(1<<node) != 0 {
			node, lo = 2*node+2, mid
		} else {
			node, hi = 2*node+1, mid
		}
	}
	return lo
}

// Reset clears all recency state.
func (t *TreePLRU) Reset() { clear(t.bits) }

// Config describes one cache level's geometry.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency int64 // hit latency in cycles
	PLRU    bool  // tree-PLRU instead of true LRU
}

// Stats counts accesses per cache.
type Stats struct {
	Hits, Misses, Evictions, Flushes uint64
}

// Cache is one set-associative cache level. Lines are identified by their
// line address; contents are not stored.
//
// The whole cache is one flat slice of ways, set s occupying
// lines[s*Ways : (s+1)*Ways]. A valid way holds its line address with
// lineValid set (line addresses are line-aligned, so bit 0 is free);
// an invalid way holds 0. A lookup is therefore one comparison per way.
type Cache struct {
	cfg   Config
	ways  int
	mask  uint64 // Sets-1 when Sets is a power of two
	pow2  bool
	lines []mem.Addr
	// last is the lines index of the way the most recent set scan of
	// an Access hit found, way lastWay of set lastSet. Instruction
	// fetch walks a code line one instruction at a time, so the next
	// lookup usually wants the same line, and when lines[last] still
	// holds it the set scan is skipped. The check is exact: a line sits
	// in at most one way, and a way that was refilled or flushed no
	// longer matches.
	last, lastSet, lastWay int
	// mru is lines[last] while the replacement policy's most recent
	// touch in this cache was of way last, and 0 otherwise. A repeat
	// hit on that line skips the touch: tree-PLRU's touch is
	// idempotent, and the way already holds LRU's newest stamp, so
	// skipping changes no victim choice. Only an Access hit sets it;
	// every other touch (Insert, a fill) clears it, and so do Flush and
	// FlushAll. Since nothing else writes a way, a valid mru always
	// equals lines[last], and a lookup may compare against it alone.
	mru mem.Addr
	// Exactly one policy is non-nil; the cache calls it directly.
	plru  *TreePLRU
	lru   *LRU
	stats Stats
}

// lineValid marks a valid way in Cache.lines.
const lineValid mem.Addr = 1

// New returns an empty cache with the given geometry.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %d×%d", cfg.Name, cfg.Sets, cfg.Ways))
	}
	c := &Cache{
		cfg:   cfg,
		ways:  cfg.Ways,
		mask:  uint64(cfg.Sets - 1),
		pow2:  cfg.Sets&(cfg.Sets-1) == 0,
		lines: make([]mem.Addr, cfg.Sets*cfg.Ways),
	}
	if cfg.PLRU {
		c.plru = NewTreePLRU(cfg.Sets, cfg.Ways)
	} else {
		c.lru = NewLRU(cfg.Sets, cfg.Ways)
	}
	return c
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// SetIndex returns the set index of addr in this cache.
func (c *Cache) SetIndex(addr mem.Addr) int {
	n := uint64(addr) / mem.LineSize
	if c.pow2 {
		return int(n & c.mask)
	}
	return int(n % uint64(c.cfg.Sets))
}

// set returns addr's set index and the set's ways.
func (c *Cache) set(addr mem.Addr) (int, []mem.Addr) {
	s := c.SetIndex(addr)
	lo := s * c.ways
	return s, c.lines[lo : lo+c.ways : lo+c.ways]
}

// wayOf returns the way of set holding v, or -1.
func wayOf(set []mem.Addr, v mem.Addr) int {
	for w, l := range set {
		if l == v {
			return w
		}
	}
	return -1
}

// touch records a use of way w of set s with the replacement policy.
// It clears mru; an Access hit sets it again.
func (c *Cache) touch(s, w int) {
	c.mru = 0
	if c.plru != nil {
		c.plru.Touch(s, w)
	} else {
		c.lru.Touch(s, w)
	}
}

// Contains reports whether addr's line is present, without touching
// replacement state (a pure probe, used by tests and the analyzer — real
// attackers cannot do this, which tests make explicit).
func (c *Cache) Contains(addr mem.Addr) bool {
	_, set := c.set(addr)
	return wayOf(set, addr.Line()|lineValid) >= 0
}

// Access looks up addr, updating recency on hit. It reports hit/miss and
// does not fill on miss (Hierarchy decides fills).
func (c *Cache) Access(addr mem.Addr) bool {
	tag := addr.Line() | lineValid
	if c.lines[c.last] == tag {
		if c.mru != tag {
			c.touch(c.lastSet, c.lastWay)
			c.mru = tag
		}
		c.stats.Hits++
		return true
	}
	s, set := c.set(addr)
	if w := wayOf(set, tag); w >= 0 {
		c.last, c.lastSet, c.lastWay = s*c.ways+w, s, w
		c.touch(s, w)
		c.mru = tag
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// fill fills addr's line, known to be absent as it is right after an
// Access of it missed, evicting the policy's victim if the set is full.
// It returns the evicted line address, if any.
func (c *Cache) fill(addr mem.Addr) (evicted mem.Addr, didEvict bool) {
	s, set := c.set(addr)
	tag := addr.Line() | lineValid
	// Free way?
	if w := wayOf(set, 0); w >= 0 {
		set[w] = tag
		c.touch(s, w)
		return 0, false
	}
	// Evict.
	var w int
	if c.plru != nil {
		w = c.plru.Victim(s)
	} else {
		w = c.lru.Victim(s)
	}
	evicted = set[w] &^ lineValid
	set[w] = tag
	c.touch(s, w)
	c.stats.Evictions++
	return evicted, true
}

// Flush invalidates addr's line if present, reporting whether it was.
func (c *Cache) Flush(addr mem.Addr) bool {
	_, set := c.set(addr)
	if w := wayOf(set, addr.Line()|lineValid); w >= 0 {
		set[w] = 0
		c.mru = 0
		c.stats.Flushes++
		return true
	}
	return false
}

// FlushAll empties the cache.
func (c *Cache) FlushAll() {
	clear(c.lines)
	c.mru = 0
	if c.plru != nil {
		c.plru.Reset()
	} else {
		c.lru.Reset()
	}
}
