package cpu

import (
	"uwm/internal/branch"
	"uwm/internal/metrics"
)

// Metric series exported by the CPU model. The analyzer's HPC detector
// reads the same names, so they are constants rather than literals.
const (
	MetricCommitted      = "uwm_cpu_committed_total"
	MetricMispredicts    = "uwm_cpu_mispredicts_total"
	MetricSpecWindows    = "uwm_cpu_spec_windows_total"
	MetricSpecInsts      = "uwm_cpu_spec_insts_total"
	MetricTxBegins       = "uwm_cpu_tx_begins_total"
	MetricTxCommits      = "uwm_cpu_tx_commits_total"
	MetricTxAborts       = "uwm_cpu_tx_aborts_total"
	MetricSpuriousAborts = "uwm_cpu_tx_spurious_aborts_total"
	MetricObservedAborts = "uwm_cpu_tx_observed_aborts_total"
	MetricMSHRMerges     = "uwm_cpu_mshr_merges_total"
	MetricFlushes        = "uwm_cpu_flushes_total"
	MetricTSC            = "uwm_cpu_tsc_cycles"
	MetricSpecWindow     = "uwm_cpu_spec_window_cycles"
)

// RegisterMetrics exposes the CPU's counters — and those of its cache
// hierarchy and branch prediction unit — on reg. Lifetime counters are
// read lazily from Stats at scrape time, so instrumentation costs the
// hot path nothing; the spec-window histogram is the one live
// instrument, observed once per opened window.
//
// Registering on several registries is allowed (the HPC detector
// attaches a private one); the window histogram stays bound to the
// first registry that claims it.
func (c *CPU) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, m := range []struct {
		name, help string
		read       func() uint64
	}{
		{MetricCommitted, "instructions committed", func() uint64 { return c.stats.Committed }},
		{MetricMispredicts, "conditional branch mispredictions", func() uint64 { return c.stats.Mispredicts }},
		{MetricSpecWindows, "speculative windows opened", func() uint64 { return c.stats.SpecWindows }},
		{MetricSpecInsts, "instructions executed transiently", func() uint64 { return c.stats.SpecInsts }},
		{MetricTxBegins, "transactional regions entered", func() uint64 { return c.stats.TxBegins }},
		{MetricTxCommits, "transactional regions committed", func() uint64 { return c.stats.TxCommits }},
		{MetricTxAborts, "transactional regions aborted", func() uint64 { return c.stats.TxAborts }},
		{MetricSpuriousAborts, "noise-injected transaction aborts", func() uint64 { return c.stats.SpuriousAborts }},
		{MetricObservedAborts, "aborts forced by an attached debugger", func() uint64 { return c.stats.ObservedAborts }},
		{MetricMSHRMerges, "accesses merged into an in-flight fill", func() uint64 { return c.stats.MSHRMerges }},
		{MetricFlushes, "clflush instructions executed", func() uint64 { return c.flushes }},
	} {
		reg.CounterFunc(m.name, m.help, m.read)
	}
	reg.GaugeFunc(MetricTSC, "virtual cycles elapsed (TSC)",
		func() float64 { return float64(c.clock) })
	if c.histSpec == nil {
		c.histSpec = reg.Histogram(MetricSpecWindow,
			"speculative window length in cycles", metrics.DefaultWindowBuckets())
	}
	c.hier.RegisterMetrics(reg)
	branch.RegisterMetrics(reg, c.dir, c.btb, c.rsb)
}
