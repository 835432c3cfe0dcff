package evalharness

import (
	"fmt"

	"uwm/internal/benchreport"
	"uwm/internal/core"
	"uwm/internal/health"
	"uwm/internal/noise"
)

// healthDeltas are the injected DRAM-latency shifts, in cycles, the
// gate-health experiment sweeps. Zero is the control; the negative
// shifts pull miss latencies toward the decision threshold, eroding the
// timing margin the way cross-core interference does on real hardware.
var healthDeltas = []int64{0, -20, -40, -60}

// GateHealth measures how gate accuracy and timing margin respond to a
// DRAM-latency shift injected mid-run, and whether the health monitor's
// CUSUM detector flags the shift. Each noise level runs on a fresh
// machine: half the operations run clean — calibration and the
// monitor's baseline see healthy margins, as a serving worker's would —
// then the shift lands and the second half runs drifted. The margin
// column shows the erosion itself, and the drift column shows the
// detector catching it before accuracy collapses — the monitor is a
// leading indicator, which is the point of deploying it.
func GateHealth(p Params) (*Table, error) {
	p.normalize()
	t := &Table{
		Title: "Gate health: accuracy and timing margin vs injected DRAM-latency shift",
		Header: []string{"Mem Δ (cycles)", "Ops", "Accuracy Before", "Accuracy After",
			"|margin| EWMA", "Margin P50", "CUSUM", "Drift Detected"},
		Notes: []string{
			fmt.Sprintf("%d TSX_AND ops per level, shift injected at the midpoint; accuracy split before/after", p.HealthOps),
			"healthy margins sit near ±93 cycles; the detector should flag every nonzero shift while accuracy is still high",
		},
	}
	for _, delta := range healthDeltas {
		mon := health.NewMonitor()
		m, err := core.NewMachine(p.observe(core.Options{
			Seed:      p.Seed,
			Noise:     noise.Paper(),
			HealthTap: mon,
		}))
		if err != nil {
			return nil, err
		}
		g, err := core.NewTSXAnd(m)
		if err != nil {
			return nil, err
		}
		half := p.HealthOps / 2
		rng := noise.NewRNG(p.Seed + 11)
		before, err := core.MeasureGate(g, half, rng)
		if err != nil {
			return nil, err
		}
		cfg := m.Noise().Config()
		cfg.MemLatencyDelta = delta
		m.Noise().SetConfig(cfg)
		after, err := core.MeasureGate(g, half, rng)
		if err != nil {
			return nil, err
		}
		mon.ObserveOutcome(after.Gate, int(before.Correct+after.Correct),
			int(before.Operations+after.Operations))

		snap := mon.Snapshot()
		var p50 float64
		for _, gh := range snap.Gates {
			if gh.Gate == after.Gate {
				p50 = gh.Margins.P50
			}
		}
		t.AddRow(
			fmt.Sprintf("%d", delta),
			fmt.Sprintf("%d", before.Operations+after.Operations),
			fmt.Sprintf("%.5f", before.Accuracy()),
			fmt.Sprintf("%.5f", after.Accuracy()),
			fmt.Sprintf("%.1f", snap.MarginEWMA),
			fmt.Sprintf("%.0f", p50),
			fmt.Sprintf("%.1f", snap.CUSUM),
			fmt.Sprintf("%v", snap.Drifting),
		)
		prefix := fmt.Sprintf("delta_%d/", -delta)
		t.AddMetric(benchreport.Metric{Name: prefix + "accuracy", Unit: "ratio",
			Better: benchreport.HigherIsBetter, Value: after.Accuracy()})
		t.AddMetric(benchreport.Metric{Name: prefix + "margin_ewma", Unit: "cycles",
			Value: snap.MarginEWMA})
		t.AddMetric(benchreport.Metric{Name: prefix + "drift_detected", Unit: "bool",
			Value: b2f(snap.Drifting)})
	}
	return t, nil
}
