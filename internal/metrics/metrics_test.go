package metrics

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("uwm_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("uwm_test_level", "test gauge")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("gauge = %v, want 3.5", g.Value())
	}
	if v, ok := r.Value("uwm_test_total"); !ok || v != 5 {
		t.Errorf("Value(counter) = %v,%v", v, ok)
	}
	if v, ok := r.Value("uwm_test_level"); !ok || v != 3.5 {
		t.Errorf("Value(gauge) = %v,%v", v, ok)
	}
	if _, ok := r.Value("uwm_absent"); ok {
		t.Error("Value reported an unregistered series")
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("uwm_gate_fires_total", "", L("gate", "AND"))
	b := r.Counter("uwm_gate_fires_total", "", L("gate", "AND"))
	if a != b {
		t.Error("same series returned distinct counters")
	}
	other := r.Counter("uwm_gate_fires_total", "", L("gate", "OR"))
	if other == a {
		t.Error("distinct label sets shared a counter")
	}
	a.Inc()
	if v, ok := r.Value("uwm_gate_fires_total", L("gate", "AND")); !ok || v != 1 {
		t.Errorf("labelled Value = %v,%v", v, ok)
	}
	if v, _ := r.Value("uwm_gate_fires_total", L("gate", "OR")); v != 0 {
		t.Errorf("OR series polluted: %v", v)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("uwm_x", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("uwm_x", "")
}

func TestCollectorFuncs(t *testing.T) {
	r := NewRegistry()
	n := uint64(0)
	r.CounterFunc("uwm_lazy_total", "reads a stats field", func() uint64 { return n })
	r.GaugeFunc("uwm_lazy_level", "", func() float64 { return float64(n) / 2 })
	n = 8
	if v, ok := r.Value("uwm_lazy_total"); !ok || v != 8 {
		t.Errorf("counter func = %v,%v", v, ok)
	}
	if v, ok := r.Value("uwm_lazy_level"); !ok || v != 4 {
		t.Errorf("gauge func = %v,%v", v, ok)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("uwm_lat_cycles", "", []float64{10, 20, 40, 80})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Errorf("sum = %v", h.Sum())
	}
	// Uniform 1..100: the median lives in the 40–80 bucket, the bucketed
	// estimate must land inside it.
	if q := h.Quantile(0.5); q < 40 || q > 80 {
		t.Errorf("p50 = %v, want within (40,80]", q)
	}
	if q := h.Quantile(0.05); q > 10 {
		t.Errorf("p05 = %v, want ≤ 10", q)
	}
	// Values above every bound clamp to the top bound.
	if q := h.Quantile(1); q != 80 {
		t.Errorf("p100 = %v, want 80 (clamped)", q)
	}
	if n := h.counts[4].Load(); n != 20 { // 81..100 in the +Inf bucket
		t.Errorf("overflow bucket = %d, want 20", n)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("uwm_cache_hits_total", "cache hits", L("level", "L1D")).Add(7)
	r.Counter("uwm_cache_hits_total", "cache hits", L("level", "L2")).Add(2)
	r.Gauge("uwm_machine_threshold_cycles", "calibrated threshold").Set(129)
	h := r.Histogram("uwm_read_cycles", "read latencies", []float64{50, 250})
	h.Observe(35)
	h.Observe(224)
	h.Observe(900)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE uwm_cache_hits_total counter",
		`uwm_cache_hits_total{level="L1D"} 7`,
		`uwm_cache_hits_total{level="L2"} 2`,
		"# TYPE uwm_machine_threshold_cycles gauge",
		"uwm_machine_threshold_cycles 129",
		"# TYPE uwm_read_cycles histogram",
		`uwm_read_cycles_bucket{le="50"} 1`,
		`uwm_read_cycles_bucket{le="250"} 2`,
		`uwm_read_cycles_bucket{le="+Inf"} 3`,
		"uwm_read_cycles_sum 1159",
		"uwm_read_cycles_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// HELP/TYPE headers must appear once per name, not per series.
	if n := strings.Count(out, "# TYPE uwm_cache_hits_total"); n != 1 {
		t.Errorf("TYPE header repeated %d times", n)
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("uwm_x_total", "")
	g := r.Gauge("uwm_x", "")
	h := r.Histogram("uwm_x_cycles", "", DefaultLatencyBuckets())
	r.CounterFunc("uwm_y_total", "", func() uint64 { return 1 })
	r.GaugeFunc("uwm_y", "", func() float64 { return 1 })
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(2)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil instruments accumulated state")
	}
	if _, ok := r.Value("uwm_y_total"); ok {
		t.Error("nil registry resolved a value")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram derived state")
	}
}

// TestDisabledMetricsZeroAlloc is the satellite guard: instruments of a
// nil registry must cost zero allocations in hot loops.
func TestDisabledMetricsZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("uwm_hot_total", "")
	h := r.Histogram("uwm_hot_cycles", "", DefaultLatencyBuckets())
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(42)
	})
	if allocs != 0 {
		t.Errorf("disabled instruments allocated %v/op, want 0", allocs)
	}
}

// BenchmarkMetricsDisabled measures the disabled path the hot
// gate-fire loop pays when no registry is attached.
func BenchmarkMetricsDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("uwm_hot_total", "")
	h := r.Histogram("uwm_hot_cycles", "", DefaultLatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(float64(i))
	}
}

// BenchmarkMetricsEnabled is the enabled-path baseline for comparison.
func BenchmarkMetricsEnabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("uwm_hot_total", "")
	h := r.Histogram("uwm_hot_cycles", "", DefaultLatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(float64(i))
	}
}
