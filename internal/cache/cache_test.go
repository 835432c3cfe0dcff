package cache

import (
	"testing"
	"testing/quick"

	"uwm/internal/mem"
)

func smallCache(ways int, plru bool) *Cache {
	return New(Config{Name: "t", Sets: 4, Ways: ways, Latency: 1, PLRU: plru})
}

// addrIn returns an address mapping to the given set, way-distinct by i.
func addrIn(c *Cache, set, i int) mem.Addr {
	stride := mem.Addr(c.Config().Sets * mem.LineSize)
	return mem.Addr(set*mem.LineSize) + mem.Addr(i)*stride
}

func TestInsertAndHit(t *testing.T) {
	c := smallCache(2, false)
	a := addrIn(c, 1, 0)
	if c.Access(a) {
		t.Error("hit in empty cache")
	}
	c.Insert(a)
	if !c.Access(a) {
		t.Error("miss after insert")
	}
	if !c.Contains(a + 63) { // same line
		t.Error("Contains should match any address in the line")
	}
	if c.Contains(a + 64) {
		t.Error("Contains matched the next line")
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(2, false)
	a, b, d := addrIn(c, 0, 0), addrIn(c, 0, 1), addrIn(c, 0, 2)
	c.Insert(a)
	c.Insert(b)
	c.Access(a) // a is now MRU
	evicted, did := c.Insert(d)
	if !did || evicted != b.Line() {
		t.Errorf("evicted %#x, want %#x", uint64(evicted), uint64(b.Line()))
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Error("post-eviction contents wrong")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache(2, false)
	a := addrIn(c, 2, 0)
	c.Insert(a)
	if !c.Flush(a) {
		t.Error("flush of present line reported absent")
	}
	if c.Flush(a) {
		t.Error("second flush reported present")
	}
	if c.Contains(a) {
		t.Error("line survives flush")
	}
}

func TestFlushAllAndStats(t *testing.T) {
	c := smallCache(4, false)
	for i := 0; i < 8; i++ {
		c.Insert(addrIn(c, i%4, i/4))
	}
	c.FlushAll()
	for i := 0; i < 8; i++ {
		if c.Contains(addrIn(c, i%4, i/4)) {
			t.Fatal("line survives FlushAll")
		}
	}
	c.Access(addrIn(c, 0, 0))
	st := c.stats
	if st.Misses == 0 {
		t.Error("stats not counting misses")
	}
}

// TestNFillsEvictVictimLRU is the eviction-set invariant the NAND/NOT
// gates rely on: inserting `ways` fresh lines into a set that holds a
// recently touched victim evicts the victim under true LRU.
func TestNFillsEvictVictimLRU(t *testing.T) {
	c := smallCache(8, false)
	victim := addrIn(c, 3, 100)
	c.Insert(victim)
	c.Access(victim) // victim is MRU
	for i := 0; i < 8; i++ {
		c.Insert(addrIn(c, 3, i))
	}
	if c.Contains(victim) {
		t.Error("victim survived a full eviction-set sweep")
	}
}

func TestSetOccupancy(t *testing.T) {
	c := smallCache(4, false)
	base := addrIn(c, 1, 0)
	if c.SetOccupancy(base) != 0 {
		t.Error("fresh set not empty")
	}
	c.Insert(addrIn(c, 1, 0))
	c.Insert(addrIn(c, 1, 1))
	if got := c.SetOccupancy(base); got != 2 {
		t.Errorf("occupancy = %d, want 2", got)
	}
}

func TestTreePLRUCoversAllWays(t *testing.T) {
	// Insert 8 distinct lines into an 8-way PLRU set: all must land in
	// distinct ways (every line still present afterwards).
	c := smallCache(8, true)
	for i := 0; i < 8; i++ {
		c.Insert(addrIn(c, 0, i))
	}
	for i := 0; i < 8; i++ {
		if !c.Contains(addrIn(c, 0, i)) {
			t.Errorf("line %d missing after filling the set", i)
		}
	}
}

func TestTreePLRUVictimNotMRU(t *testing.T) {
	c := smallCache(8, true)
	for i := 0; i < 8; i++ {
		c.Insert(addrIn(c, 0, i))
	}
	// Touch line 5, then insert a new line: 5 must survive.
	c.Access(addrIn(c, 0, 5))
	c.Insert(addrIn(c, 0, 99))
	if !c.Contains(addrIn(c, 0, 5)) {
		t.Error("tree-PLRU evicted the most recently used line")
	}
}

func TestTreePLRUNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 6-way tree-PLRU")
		}
	}()
	NewTreePLRU(4, 6)
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	cfg := h.cfg
	addr := mem.Addr(0x4000)

	lat, lvl := h.LoadData(addr)
	if lvl != LevelMem || lat != cfg.L1D.Latency+cfg.L2.Latency+cfg.MemLatency {
		t.Errorf("cold load: lat=%d lvl=%v", lat, lvl)
	}
	lat, lvl = h.LoadData(addr)
	if lvl != LevelL1 || lat != cfg.L1D.Latency {
		t.Errorf("warm load: lat=%d lvl=%v", lat, lvl)
	}
	// Evict from L1 only (flush L1D directly) → next access is L2.
	h.l1d.Flush(addr)
	lat, lvl = h.LoadData(addr)
	if lvl != LevelL2 || lat != cfg.L1D.Latency+cfg.L2.Latency {
		t.Errorf("L2 load: lat=%d lvl=%v", lat, lvl)
	}
}

func TestHierarchyFlushRemovesEverywhere(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	addr := mem.Addr(0x8000)
	h.LoadData(addr)
	h.FlushData(addr)
	if h.l1d.Contains(addr) || h.l2.Contains(addr) {
		t.Error("flush left the line somewhere")
	}
	if _, lvl := h.LoadData(addr); lvl != LevelMem {
		t.Error("post-flush load did not go to memory")
	}
}

// TestInclusionBackInvalidate is the invariant behind the eviction-set
// gates: filling a victim's L2 set pushes the victim out of L1 too.
func TestInclusionBackInvalidate(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	victim := mem.Addr(0x10000)
	h.LoadData(victim)
	if !h.l1d.Contains(victim) {
		t.Fatal("victim not in L1D")
	}
	// L2 set stride: sets × line size.
	stride := mem.Addr(h.l2.Config().Sets * mem.LineSize)
	for i := 1; i <= h.l2.Config().Ways; i++ {
		h.LoadData(victim + mem.Addr(i)*stride)
	}
	if h.l2.Contains(victim) {
		t.Error("victim survived an L2 eviction-set sweep")
	}
	if h.l1d.Contains(victim) {
		t.Error("back-invalidation failed: victim still in L1D after L2 eviction")
	}
}

func TestInstDataSplit(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	addr := mem.Addr(0x2000)
	h.FetchInst(addr)
	if !h.l1i.Contains(addr) {
		t.Error("fetch did not fill L1I")
	}
	if h.l1d.Contains(addr) {
		t.Error("instruction fetch filled L1D")
	}
	// But both share L2.
	if !h.l2.Contains(addr) {
		t.Error("fetch did not fill unified L2")
	}
}

// TestStoreIsWriteAllocate: the cpu issues a store as a LoadData, so a
// cold store fills the line like a load does.
func TestStoreIsWriteAllocate(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	addr := mem.Addr(0x3000)
	if _, lvl := h.LoadData(addr); lvl != LevelMem {
		t.Error("cold store level wrong")
	}
	if !h.l1d.Contains(addr) {
		t.Error("store did not allocate the line")
	}
}

// TestSetIndexProperty: any two addresses a line apart map to adjacent
// sets (mod set count).
func TestSetIndexProperty(t *testing.T) {
	c := New(Config{Name: "p", Sets: 64, Ways: 8, Latency: 1})
	f := func(a uint32) bool {
		addr := mem.Addr(a)
		s1 := c.SetIndex(addr)
		s2 := c.SetIndex(addr + mem.LineSize)
		return s2 == (s1+1)%64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero sets")
		}
	}()
	New(Config{Name: "bad", Sets: 0, Ways: 1})
}
