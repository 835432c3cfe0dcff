package cpu

import (
	"math"
	"sync"
	"testing"

	"uwm/internal/isa"
	"uwm/internal/mem"
	"uwm/internal/noise"
)

// TestDecayTableExact checks that the memoized decay is bit-identical
// to computing Exp2 directly, for every gap inside the table and well
// past its end, at both default half-lives and a non-integer one.
func TestDecayTableExact(t *testing.T) {
	for _, h := range []float64{128, 96, 61.7} {
		table := decayTable(h)
		if len(table) != decayTableLen {
			t.Fatalf("half-life %v: table length %d, want %d", h, len(table), decayTableLen)
		}
		for _, p := range []float64{0.25, 1, 3.7, 41.123456789, 1e6} {
			for dt := int64(1); dt < 3*decayTableLen; dt++ {
				want := p * math.Exp2(-float64(dt)/h)
				if got := decayPressure(p, 1000, 1000+dt, h, table); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("half-life %v, p=%v, dt=%d: %v (%#x), want %v (%#x)",
						h, p, dt, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestDecayTableShared checks that tables are built once per half-life
// and shared by every CPU, rather than rebuilt per machine.
func TestDecayTableShared(t *testing.T) {
	if a, b := decayTable(96), decayTable(96); &a[0] != &b[0] {
		t.Error("decayTable(96) built twice")
	}
	if decayTable(0) != nil || decayTable(-1) != nil || decayTable(math.NaN()) != nil {
		t.Error("non-positive or NaN half-life got a table")
	}
	cfg := DefaultConfig()
	c1 := New(cfg, mem.New(), noise.NewSource(1, noise.Quiet()))
	c2 := New(cfg, mem.New(), noise.NewSource(2, noise.Quiet()))
	if &c1.robDecay[0] != &c2.robDecay[0] || &c1.mulDecay[0] != &c2.mulDecay[0] {
		t.Error("two CPUs with one config hold separate decay tables")
	}
}

// TestInflightTable exercises the MSHR table: misses register their
// lines, a re-access while the fill is in flight merges, clflush drops
// the line's entry and a serializing fence drains the rest.
func TestInflightTable(t *testing.T) {
	c := New(DefaultConfig(), mem.New(), noise.NewSource(1, noise.Quiet()))
	layout := mem.NewLayout(0x10_0000)
	x, y := layout.AllocLine("x"), layout.AllocLine("y")
	b := isa.NewBuilder(0x1000)
	b.Label("miss").
		Clflush(x, 0).
		Clflush(y, 0).
		Fence().
		Load(isa.R1, x, 0).
		Load(isa.R2, y, 0).
		Load(isa.R3, x, 8).
		Halt()
	b.Label("flushx").Clflush(x, 0).Halt()
	b.Label("drain").Fence().Halt()
	p := b.MustBuild()

	if _, err := c.Run(p, "miss"); err != nil {
		t.Fatal(err)
	}
	fl := c.Inflight()
	if len(fl) != 2 || fl[x.Addr] <= c.TSC() || fl[y.Addr] <= c.TSC() {
		t.Fatalf("after two misses: inflight %v at TSC %d", fl, c.TSC())
	}
	if got := c.Stats().MSHRMerges; got != 1 {
		t.Errorf("MSHR merges = %d, want 1 (the second load of x)", got)
	}
	if _, err := c.Run(p, "flushx"); err != nil {
		t.Fatal(err)
	}
	if fl := c.Inflight(); len(fl) != 1 || fl[y.Addr] == 0 {
		t.Errorf("after clflush x: inflight %v, want only y", fl)
	}
	if _, err := c.Run(p, "drain"); err != nil {
		t.Fatal(err)
	}
	if fl := c.Inflight(); len(fl) != 0 {
		t.Errorf("after fence: inflight %v, want empty", fl)
	}
}

// TestDecayTableConcurrentBuild builds CPUs with a half-life no other
// test uses from several goroutines at once: every CPU must end up
// with the one shared table (run under -race).
func TestDecayTableConcurrentBuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBPressureHalfLife = 77.25
	cpus := make([]*CPU, 4)
	var wg sync.WaitGroup
	for i := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpus[i] = New(cfg, mem.New(), noise.NewSource(uint64(i), noise.Quiet()))
		}()
	}
	wg.Wait()
	for _, c := range cpus[1:] {
		if &c.robDecay[0] != &cpus[0].robDecay[0] {
			t.Fatal("concurrently built CPUs hold separate decay tables")
		}
	}
}
