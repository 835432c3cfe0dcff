package analyzer

import (
	"fmt"

	"uwm/internal/cpu"
	"uwm/internal/metrics"
)

// HPC-based μWM detection (paper §7): performance-monitoring hardware
// can flag the abnormal event mix weird machines produce — transaction
// abort storms, mispredict-heavy phases, flush-dominated cache traffic.
// The paper argues such detectors are trainable but evadable; this
// model lets both sides be measured.
//
// HPCDetector samples the CPU's lifetime counters over a window of
// committed instructions and scores the event rates against thresholds
// calibrated on benign code. Offline, package traceanalyze counts the
// same events in a recorded trace and judges them with the same
// HPCThresholds.Judge.

// HPCSample is one observation window of counter deltas.
type HPCSample struct {
	Committed      uint64
	Mispredicts    uint64
	SpecWindows    uint64
	TxAborts       uint64
	TxCommits      uint64
	SpuriousAborts uint64
	CacheFlushes   uint64
}

// MispredictRate returns mispredicts per committed instruction.
func (s HPCSample) MispredictRate() float64 { return rate(s.Mispredicts, s.Committed) }

// AbortRate returns transaction aborts per committed instruction.
func (s HPCSample) AbortRate() float64 { return rate(s.TxAborts, s.Committed) }

// AbortFraction returns aborts per transaction.
func (s HPCSample) AbortFraction() float64 { return rate(s.TxAborts, s.TxAborts+s.TxCommits) }

// FlushRate returns clflush instructions per committed instruction.
func (s HPCSample) FlushRate() float64 { return rate(s.CacheFlushes, s.Committed) }

// SpecRate returns speculative windows per committed instruction.
func (s HPCSample) SpecRate() float64 { return rate(s.SpecWindows, s.Committed) }

func rate(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// HPCThresholds calibrates the detector. The defaults flag behaviour
// far outside anything benign code produces: benign programs commit
// the vast majority of their transactions, mispredict on a few percent
// of instructions and essentially never execute clflush, while μWM
// gates abort *by design*, mistrain branches on purpose and flush their
// inputs constantly.
type HPCThresholds struct {
	// MaxMispredictRate is the benign ceiling for mispredicts per
	// committed instruction.
	MaxMispredictRate float64
	// MaxAbortFraction is the benign ceiling for aborted transactions
	// per transaction.
	MaxAbortFraction float64
	// MaxFlushRate is the benign ceiling for clflush instructions per
	// committed instruction.
	MaxFlushRate float64
	// MaxSpecRate is the benign ceiling for speculative windows per
	// committed instruction.
	MaxSpecRate float64
	// MinEvents avoids judging windows with too little activity.
	MinEvents uint64
}

// DefaultHPCThresholds returns the calibrated thresholds.
func DefaultHPCThresholds() HPCThresholds {
	return HPCThresholds{
		// Benign loops mispredict well under 1% of instructions once
		// warm; BP gates sit near 3% because every activation retrains.
		MaxMispredictRate: 0.02,
		// Benign transactional code commits almost always; a TSX gate
		// aborts its fire transaction every single activation (≈50%
		// counting its committing read transaction).
		MaxAbortFraction: 0.35,
		// μWM input writes flush a line per activation; BP gates sit
		// near 9% of instructions, TSX gates near 2.5%.
		MaxFlushRate: 0.02,
		// Benign code opens a speculative window on at most a few
		// percent of instructions.
		MaxSpecRate: 0.05,
		MinEvents:   64,
	}
}

// Judge scores one sample. A window with fewer than MinEvents
// committed instructions gets no verdict, only a caveat in Reasons.
// The abort-fraction rule needs at least four transactions.
func (th HPCThresholds) Judge(s HPCSample) Verdict {
	v := Verdict{Sample: s}
	if s.Committed < th.MinEvents {
		v.Reasons = append(v.Reasons, fmt.Sprintf("window too small to judge (%d committed < %d)", s.Committed, th.MinEvents))
		return v
	}
	flag := func(format string, args ...any) {
		v.Suspicious = true
		v.Reasons = append(v.Reasons, fmt.Sprintf(format, args...))
	}
	if r := s.MispredictRate(); r > th.MaxMispredictRate {
		flag("mispredict rate %.3f/inst exceeds %.3f", r, th.MaxMispredictRate)
	}
	if f := s.AbortFraction(); s.TxAborts+s.TxCommits >= 4 && f > th.MaxAbortFraction {
		flag("tx abort fraction %.3f exceeds %.3f", f, th.MaxAbortFraction)
	}
	if r := s.FlushRate(); r > th.MaxFlushRate {
		flag("clflush rate %.4f/inst exceeds %.4f", r, th.MaxFlushRate)
	}
	if r := s.SpecRate(); r > th.MaxSpecRate {
		flag("speculative-window rate %.4f/inst exceeds %.4f", r, th.MaxSpecRate)
	}
	return v
}

// HPCDetector scores counter rates sourced from a metrics registry —
// the same registry a -metrics run exports, so the defender model and
// the operator read one set of numbers.
type HPCDetector struct {
	reg  *metrics.Registry
	th   HPCThresholds
	last HPCSample // cumulative snapshot at the last window boundary
}

// NewHPCDetector attaches a detector to the machine's CPU by
// registering the CPU's counters on a private registry. Use
// NewHPCDetectorFromRegistry to share an existing one.
func NewHPCDetector(c *cpu.CPU, th HPCThresholds) *HPCDetector {
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	return NewHPCDetectorFromRegistry(reg, th)
}

// NewHPCDetectorFromRegistry attaches a detector to a registry that
// already carries the cpu.Metric* series (e.g. the session registry of
// an instrumented run).
func NewHPCDetectorFromRegistry(reg *metrics.Registry, th HPCThresholds) *HPCDetector {
	d := &HPCDetector{reg: reg, th: th}
	d.last = d.cumulative()
	return d
}

// cumulative reads the registry's current counter totals.
func (d *HPCDetector) cumulative() HPCSample {
	read := func(name string) uint64 {
		v, _ := d.reg.Value(name)
		return uint64(v)
	}
	return HPCSample{
		Committed:      read(cpu.MetricCommitted),
		Mispredicts:    read(cpu.MetricMispredicts),
		SpecWindows:    read(cpu.MetricSpecWindows),
		TxAborts:       read(cpu.MetricTxAborts),
		TxCommits:      read(cpu.MetricTxCommits),
		SpuriousAborts: read(cpu.MetricSpuriousAborts),
		CacheFlushes:   read(cpu.MetricFlushes),
	}
}

// Sample returns the counter deltas since the previous Sample (or
// attach) and advances the window.
func (d *HPCDetector) Sample() HPCSample {
	now := d.cumulative()
	s := HPCSample{
		Committed:      now.Committed - d.last.Committed,
		Mispredicts:    now.Mispredicts - d.last.Mispredicts,
		SpecWindows:    now.SpecWindows - d.last.SpecWindows,
		TxAborts:       now.TxAborts - d.last.TxAborts,
		TxCommits:      now.TxCommits - d.last.TxCommits,
		SpuriousAborts: now.SpuriousAborts - d.last.SpuriousAborts,
		CacheFlushes:   now.CacheFlushes - d.last.CacheFlushes,
	}
	d.last = now
	return s
}

// Verdict is an HPC detection decision.
type Verdict struct {
	Sample     HPCSample
	Suspicious bool
	Reasons    []string
}

// String renders the verdict for logs.
func (v Verdict) String() string {
	switch {
	case v.Suspicious:
		return fmt.Sprintf("SUSPICIOUS: %v", v.Reasons)
	case len(v.Reasons) > 0:
		return fmt.Sprintf("no verdict: %v", v.Reasons)
	}
	return fmt.Sprintf("benign (mispredict %.3f/inst, abort fraction %.3f)",
		v.Sample.MispredictRate(), v.Sample.AbortFraction())
}

// Judge samples the window and scores it.
func (d *HPCDetector) Judge() Verdict { return d.th.Judge(d.Sample()) }
