package cpu

import (
	"testing"

	"uwm/internal/branch"
	"uwm/internal/cache"
	"uwm/internal/isa"
	"uwm/internal/metrics"
)

// TestRegisterMetrics runs a program with a cold-load conditional
// branch (a mispredict with a real speculative window) and checks that
// every layer's counters surface through the registry.
func TestRegisterMetrics(t *testing.T) {
	r := newRig()
	reg := metrics.NewRegistry()
	r.cpu.RegisterMetrics(reg)

	x := r.layout.AllocLine("x")
	b := isa.NewBuilder(0x1000)
	b.Label("main").
		Load(isa.R1, x, 0).  // cold miss: the condition resolves late
		Load(isa.R2, x, 8).  // same line, fill in flight: MSHR merge
		Brz(isa.R1, "done"). // taken (mem reads 0), predicted not-taken
		Nop()
	b.Label("done").
		Halt()
	r.mustRun(t, b.MustBuild(), "main")

	for _, name := range []string{
		MetricCommitted,
		MetricMispredicts,
		MetricSpecWindows,
		MetricMSHRMerges,
		branch.MetricPredictions,
		branch.MetricTraining,
	} {
		if v, ok := reg.Value(name); !ok || v < 1 {
			t.Errorf("%s = %v,%v, want ≥ 1", name, v, ok)
		}
	}
	if v, ok := reg.Value(MetricTSC); !ok || v <= 0 {
		t.Errorf("TSC gauge = %v,%v", v, ok)
	}
	if v, ok := reg.Value(cache.MetricMisses, metrics.L("level", "L1D")); !ok || v < 1 {
		t.Errorf("L1D misses = %v,%v, want ≥ 1", v, ok)
	}
	// Registering the series again returns the live histogram.
	if h := reg.Histogram(MetricSpecWindow, "", nil); h.Count() < 1 {
		t.Errorf("spec-window histogram missing or empty")
	}
}

// TestRegisterMetricsTwice models the HPC detector attaching a private
// registry next to the session one: both must read the same counters,
// and the window histogram must stay bound to the first registry.
func TestRegisterMetricsTwice(t *testing.T) {
	r := newRig()
	first := metrics.NewRegistry()
	second := metrics.NewRegistry()
	r.cpu.RegisterMetrics(first)
	hist := r.cpu.histSpec
	r.cpu.RegisterMetrics(second)
	if r.cpu.histSpec != hist {
		t.Error("second registration re-bound the window histogram")
	}

	b := isa.NewBuilder(0x1000)
	b.Label("main").Nop().Halt()
	r.mustRun(t, b.MustBuild(), "main")

	v1, _ := first.Value(MetricCommitted)
	v2, _ := second.Value(MetricCommitted)
	if v1 != v2 || v1 < 1 {
		t.Errorf("registries disagree: %v vs %v", v1, v2)
	}
}
