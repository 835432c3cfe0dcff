// Package cpu implements the cycle-level execution model the μWM runs
// on. It executes isa programs against a simulated memory, cache
// hierarchy and branch prediction unit, modelling exactly the phenomena
// the paper's weird gates exploit:
//
//   - committed (architectural) execution with a pipelined timing model:
//     loads complete asynchronously, so a conditional branch whose
//     condition was flushed from the cache resolves late;
//   - erroneous speculative execution: on a mispredicted branch, the
//     wrong-path instructions execute in dataflow order until the branch
//     resolves; their cache side effects persist, their architectural
//     effects do not;
//   - TSX-style transactions: a faulting instruction aborts the region
//     and rolls back architectural state, but the pipeline keeps
//     executing the following instructions transiently for a bounded
//     post-fault window (the paper's §4 observation, after ZombieLoad);
//   - timing reads (serializing RDTSC) with measurement overhead, jitter
//     and rare interrupt outliers;
//   - functional-unit and ROB contention, which back the contention-based
//     weird registers of Table 1.
package cpu

import (
	"fmt"
	"math"

	"uwm/internal/cache"
)

// Config holds every latency and structural parameter of the model. The
// defaults (DefaultConfig) are calibrated so measured timings and gate
// accuracies land in the bands the paper reports; ablation benchmarks
// vary them deliberately.
type Config struct {
	// Hierarchy is the cache geometry and latencies.
	Hierarchy cache.HierarchyConfig

	// PredictorSize is the number of direction-predictor entries.
	PredictorSize int
	// UseGShare selects the history-hashed predictor instead of the
	// per-PC bimodal one (an ablation: gshare makes repeated
	// mistraining harder, as §4 warns).
	UseGShare bool
	// GShareHistoryBits is the global history length for gshare.
	GShareHistoryBits uint
	// BTBSize is the number of branch target buffer entries.
	BTBSize int
	// RSBDepth is the return stack depth.
	RSBDepth int

	// MispredictPenalty is the pipeline refill cost after a resolved
	// misprediction, in cycles.
	MispredictPenalty int64
	// IFetchMissPenalty is the extra front-end cost (decode restart,
	// fetch-pipeline refill) of an instruction fetch served from DRAM.
	// It is what makes the IC-WR race robust: a flushed gate body pays
	// DRAM latency plus this penalty, reliably losing against a
	// speculative window whose length is a bare DRAM data load.
	IFetchMissPenalty int64
	// BTBMissPenalty is the redirect cost of a jump whose target was
	// not in the BTB (or was wrong).
	BTBMissPenalty int64

	// ALULatency, MulLatency, DivLatency are execution latencies.
	ALULatency int64
	MulLatency int64
	DivLatency int64
	// FlushLatency is the cost of a clflush.
	FlushLatency int64
	// RdtscLatency is the cost of the serializing timestamp read; it
	// is the constant ~30-cycle floor under every measured latency in
	// the paper's Tables 6 and 7.
	RdtscLatency int64

	// TSXWindow is the base length, in cycles, of the post-fault
	// transient execution window inside a transaction.
	TSXWindow int64
	// TSXAbortPenalty is the cost of rolling back an aborted
	// transaction and redirecting to the handler.
	TSXAbortPenalty int64
	// XBeginLatency and XEndLatency cost the region markers.
	XBeginLatency int64
	XEndLatency   int64

	// MaxSpecInsts bounds one speculative window (hardware analogue:
	// ROB capacity).
	MaxSpecInsts int
	// MaxSteps bounds one Run call, guarding against runaway
	// programs.
	MaxSteps int

	// MulPressureHalfLife controls the decay, in cycles, of multiply-
	// unit contention; MulContentionFactor scales the extra latency
	// per unit of pressure. Together they make MUL-contention weird
	// registers volatile, as Table 1 describes.
	MulPressureHalfLife float64
	MulContentionFactor float64

	// ROBPressureHalfLife and ROBStallFactor model reorder-buffer
	// pressure from long dependency chains; every committed
	// instruction's front-end cost grows by pressure×factor cycles, so
	// contention is graded rather than a threshold cliff.
	//
	// All four contention parameters must be finite (Validate); a
	// non-positive half-life means no decay, a non-positive factor no
	// surcharge.
	ROBPressureHalfLife float64
	ROBStallFactor      float64
}

// Validate reports the first contention parameter that is NaN or
// infinite. Such a value would turn pressure into NaN or ±Inf and the
// cycles it adds into an implementation-defined integer.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MulPressureHalfLife", c.MulPressureHalfLife},
		{"MulContentionFactor", c.MulContentionFactor},
		{"ROBPressureHalfLife", c.ROBPressureHalfLife},
		{"ROBStallFactor", c.ROBStallFactor},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("cpu: %s is %v, want a finite value", f.name, f.v)
		}
	}
	return nil
}

// DefaultConfig returns the calibrated model parameters (see package
// documentation). Timed loads measure ≈35 cycles on an L1 hit and ≈224
// cycles on a DRAM access, matching the medians of Tables 6 and 7.
func DefaultConfig() Config {
	return Config{
		Hierarchy:         cache.DefaultHierarchyConfig(),
		PredictorSize:     4096,
		GShareHistoryBits: 12,
		BTBSize:           1024,
		RSBDepth:          16,

		MispredictPenalty: 20,
		IFetchMissPenalty: 45,
		BTBMissPenalty:    20,

		ALULatency:   1,
		MulLatency:   3,
		DivLatency:   24,
		FlushLatency: 4,
		RdtscLatency: 30,

		TSXWindow:       160,
		TSXAbortPenalty: 140,
		XBeginLatency:   10,
		XEndLatency:     10,

		MaxSpecInsts: 256,
		MaxSteps:     4_000_000,

		MulPressureHalfLife: 128,
		MulContentionFactor: 1.5,

		ROBPressureHalfLife: 96,
		ROBStallFactor:      0.15,
	}
}

// defaultMemLatency is applied when the hierarchy config carries a zero
// memory latency (callers composing configs by hand).
const defaultMemLatency = 175

func (c *Config) normalize() {
	if c.Hierarchy.MemLatency == 0 {
		c.Hierarchy.MemLatency = defaultMemLatency
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 4_000_000
	}
	if c.MaxSpecInsts == 0 {
		c.MaxSpecInsts = 256
	}
	if c.PredictorSize == 0 {
		c.PredictorSize = 4096
	}
	if c.BTBSize == 0 {
		c.BTBSize = 1024
	}
	if c.RSBDepth == 0 {
		c.RSBDepth = 16
	}
}
