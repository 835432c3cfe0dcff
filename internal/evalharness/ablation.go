package evalharness

import (
	"fmt"

	"uwm/internal/benchreport"
	"uwm/internal/core"
	"uwm/internal/cpu"
	"uwm/internal/noise"
)

// Ablations re-runs gate accuracy under deliberately degraded
// configurations, quantifying the design choices the paper discusses:
//
//   - no core isolation (§6.1's setup matters): paper-noise outliers and
//     evictions at busy-machine rates;
//   - a collapsed TSX window (8 cycles): the §4 race needs room for the
//     dependent chain to issue, so every output collapses to 0;
//   - a generous TSX window (400 cycles, longer than a DRAM miss): the
//     chain completes even when its operands missed, so the race carries
//     no information and outputs collapse to 1 — the window must sit
//     between the hit and miss latencies for the gate to compute at all;
//   - a gshare (history-hashed) predictor: §4 warns that pattern-
//     detecting BPUs resist repeated mistraining;
//   - single-iteration training: BP-WR writes that barely move the
//     2-bit counters.
func Ablations(p Params) (*Table, error) {
	p.normalize()
	t := &Table{
		Title:  "Ablations: gate accuracy under degraded configurations",
		Header: []string{"Variant", "Gate", "Operations", "Accuracy"},
		Notes: []string{
			"baseline rows use the calibrated paper configuration",
		},
	}

	// probe is one measured gate: its catalogue name, row label and
	// metric-name segment.
	type probe struct{ gate, label, metric string }
	bp := probe{"AND", "AND (bp/icache)", "AND_bp"}
	tsx := probe{"TSX_AND", "TSX_AND", "TSX_AND"}
	both := []probe{bp, tsx}
	type variant struct {
		name  string
		opts  func() (core.Options, error)
		gates []probe
	}

	variants := []variant{
		{
			name: "baseline (paper)",
			opts: func() (core.Options, error) {
				return core.Options{Seed: p.Seed, Noise: noise.Paper(), TrainIterations: 4}, nil
			},
			gates: both,
		},
		{
			name: "busy machine (no §6.1 isolation)",
			opts: func() (core.Options, error) {
				return core.Options{Seed: p.Seed, Noise: noise.Noisy(), TrainIterations: 4}, nil
			},
			gates: both,
		},
		{
			name: "TSX window 8 cycles",
			opts: func() (core.Options, error) {
				cfg := cpu.DefaultConfig()
				// Shorter than the dependent chain's issue time: the race
				// is unwinnable and every gate output collapses to 0.
				cfg.TSXWindow = 8
				return core.Options{Seed: p.Seed, Noise: noise.Paper(), CPU: &cfg, TrainIterations: 4}, nil
			},
			gates: []probe{tsx},
		},
		{
			name: "TSX window 400 cycles",
			opts: func() (core.Options, error) {
				cfg := cpu.DefaultConfig()
				cfg.TSXWindow = 400
				return core.Options{Seed: p.Seed, Noise: noise.Paper(), CPU: &cfg, TrainIterations: 4}, nil
			},
			gates: []probe{tsx},
		},
		{
			name: "gshare predictor",
			opts: func() (core.Options, error) {
				cfg := cpu.DefaultConfig()
				cfg.UseGShare = true
				return core.Options{Seed: p.Seed, Noise: noise.Paper(), CPU: &cfg, TrainIterations: 4}, nil
			},
			gates: []probe{bp},
		},
		{
			name: "single-iteration training",
			opts: func() (core.Options, error) {
				return core.Options{Seed: p.Seed, Noise: noise.Paper(), TrainIterations: 1}, nil
			},
			gates: []probe{bp},
		},
	}

	ops := p.Table8Ops / 4
	if ops < 500 {
		ops = 500
	}
	for i, v := range variants {
		opts, err := v.opts()
		if err != nil {
			return nil, err
		}
		m, err := core.NewMachine(p.observe(opts))
		if err != nil {
			return nil, err
		}
		// Only the baseline's accuracy is a quality target; degraded
		// variants exist to be bad, so their metrics stay neutral.
		better := benchreport.Neutral
		if i == 0 {
			better = benchreport.HigherIsBetter
		}
		rng := noise.NewRNG(p.Seed + 77)
		for _, pr := range v.gates {
			rep, err := measure(m, pr.gate, ops, rng)
			if err != nil {
				return nil, err
			}
			t.AddRow(v.name, pr.label, fmt.Sprintf("%d", ops), fmt.Sprintf("%.5f", rep.Accuracy()))
			t.AddMetric(benchreport.Metric{Name: v.name + "/" + pr.metric + "/accuracy", Unit: "ratio",
				Better: better, Value: rep.Accuracy()})
		}
	}
	return t, nil
}
