package cache

import "uwm/internal/mem"

// Probes the tests use to set up and inspect a cache directly. The
// simulator itself fills through the Hierarchy and never peeks.

// Insert fills addr's line, evicting the policy's victim if the set is
// full. It returns the evicted line address, if any.
func (c *Cache) Insert(addr mem.Addr) (evicted mem.Addr, didEvict bool) {
	s, set := c.set(addr)
	// Already present: just touch.
	if w := wayOf(set, addr.Line()|lineValid); w >= 0 {
		c.touch(s, w)
		return 0, false
	}
	return c.fill(addr)
}

// SetContents returns the line addresses currently valid in addr's set,
// a diagnostic probe for eviction-set debugging.
func (c *Cache) SetContents(addr mem.Addr) []mem.Addr {
	_, set := c.set(addr)
	var out []mem.Addr
	for _, l := range set {
		if l != 0 {
			out = append(out, l&^lineValid)
		}
	}
	return out
}

// SetOccupancy returns how many ways of addr's set are valid, used by
// eviction-set constructions (the NOT/NAND gates evict a line by filling
// its set).
func (c *Cache) SetOccupancy(addr mem.Addr) int {
	_, set := c.set(addr)
	n := 0
	for _, l := range set {
		if l != 0 {
			n++
		}
	}
	return n
}
