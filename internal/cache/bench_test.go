package cache

import (
	"testing"

	"uwm/internal/mem"
)

// BenchmarkHierarchyHit measures the L1-hit fast path.
func BenchmarkHierarchyHit(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.LoadData(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.LoadData(0x1000)
	}
}

// BenchmarkHierarchyFetchSameLine measures instruction fetch walking
// one code line an instruction at a time, the CPU's common case, the
// way the CPU's fetch loop does it: RepeatFetch first, FetchInst when
// that declines.
func BenchmarkHierarchyFetchSameLine(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	const line = 0x4000
	h.FetchInst(line)
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := line + mem.Addr(i%16)*4
		if lat, ok := h.RepeatFetch(addr); ok {
			cycles += lat
		} else {
			lat, _ := h.FetchInst(addr)
			cycles += lat
		}
	}
	if cycles != int64(b.N)*h.cfg.L1I.Latency {
		b.Fatalf("%d fetches took %d cycles, want L1I hits", b.N, cycles)
	}
}

// BenchmarkHierarchyMissSweep measures repeated full-hierarchy misses.
func BenchmarkHierarchyMissSweep(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := mem.Addr(i) * 64 % (1 << 24)
		h.LoadData(addr)
	}
}

// BenchmarkFlushTouch measures the flush/refill cycle every weird
// register write performs.
func BenchmarkFlushTouch(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FlushData(0x2000)
		h.LoadData(0x2000)
	}
}

// BenchmarkLRUInsert measures raw set-associative insertion.
func BenchmarkLRUInsert(b *testing.B) {
	c := New(Config{Name: "b", Sets: 64, Ways: 8, Latency: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(mem.Addr(i*64) % (1 << 20))
	}
}
