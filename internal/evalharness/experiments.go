package evalharness

import (
	"crypto/sha1"
	"fmt"

	"uwm/internal/benchreport"
	"uwm/internal/core"
	"uwm/internal/noise"
	"uwm/internal/sha1wm"
	"uwm/internal/skelly"
	"uwm/internal/stats"
	"uwm/internal/wmapt"
)

// paperTable2 holds the paper's reported throughput/accuracy for the
// comparison column of Table 2.
var paperTable2 = map[string]struct {
	opsPerSec float64
	accuracy  float64
}{
	"AND":        {66_666, 1.000},
	"OR":         {17_543, 0.980},
	"NAND":       {76_923, 1.000},
	"AND_AND_OR": {12_345, 0.994},
	"TSX_AND":    {1_692_047, 0.985},
	"TSX_OR":     {1_831_501, 0.979},
	"TSX_ASSIGN": {2_380_952, 0.985},
	"TSX_XOR":    {60_020, 0.992},
}

// Table2 reproduces the gate performance/accuracy overview. BP gates
// run with the full mistraining loop (TrainIterations), which is what
// makes them an order of magnitude slower than the TSX family — the
// paper's headline shape.
func Table2(p Params) (*Table, error) {
	p.normalize()
	m, err := core.NewMachine(p.observe(core.Options{
		Seed:            p.Seed,
		Noise:           noise.PaperIsolated(),
		TrainIterations: p.TrainIterations,
	}))
	if err != nil {
		return nil, err
	}
	return table2On(m, p)
}

func table2On(m *core.Machine, p Params) (*Table, error) {
	rng := noise.NewRNG(p.Seed + 2)
	t := &Table{
		Title: "Table 2: Overview of various WG performance and accuracy",
		Header: []string{"Weird Gate", "Iterations", "Sim Exec Time (s)", "Executions/Second",
			"Accuracy", "Paper Exec/s", "Paper Acc"},
		Notes: []string{
			fmt.Sprintf("simulated cycles converted at %.1f GHz; BP gates include %d-iteration mistraining per activation", p.ClockHz/1e9, m.TrainIterations()),
			"shape to match the paper: TSX gates 1–2 orders of magnitude faster; TSX_XOR slowest of the TSX family",
		},
	}

	// Table 2's own build order, which is not a serving worker's.
	for _, name := range []string{
		"AND", "OR", "NAND", "AND_AND_OR", "TSX_AND", "TSX_OR", "TSX_ASSIGN", "TSX_XOR",
	} {
		rep, err := measure(m, name, p.Table2Ops, rng)
		if err != nil {
			return nil, err
		}
		appendTable2Row(t, rep, p)
	}
	return t, nil
}

// measure builds the named gate on m and scores n random activations.
func measure(m *core.Machine, name string, n int, rng *noise.RNG) (core.AccuracyReport, error) {
	g, err := core.NewGate(m, name)
	if err != nil {
		return core.AccuracyReport{}, err
	}
	return core.MeasureGate(g, n, rng)
}

func appendTable2Row(t *Table, rep core.AccuracyReport, p Params) {
	ref := paperTable2[rep.Gate]
	simSecs := float64(rep.Cycles) / p.ClockHz
	t.AddRow(
		rep.Gate,
		fmt.Sprintf("%d", rep.Operations),
		fmt.Sprintf("%.3f", simSecs),
		fmt.Sprintf("%.0f", rep.OpsPerSecond(p.ClockHz)),
		fmt.Sprintf("%.3f%%", rep.Accuracy()*100),
		fmt.Sprintf("%.0f", ref.opsPerSec),
		fmt.Sprintf("%.1f%%", ref.accuracy*100),
	)
	t.AddMetric(benchreport.Metric{Name: rep.Gate + "/ops_per_sec", Unit: "ops/s",
		Better: benchreport.HigherIsBetter, Value: rep.OpsPerSecond(p.ClockHz)})
	t.AddMetric(benchreport.Metric{Name: rep.Gate + "/accuracy", Unit: "ratio",
		Better: benchreport.HigherIsBetter, Value: rep.Accuracy()})
}

// Table3 reproduces the wm_apt trigger-count statistics, and returns
// the raw counts for Figure 6's histogram.
func Table3(p Params) (*Table, []int64, error) {
	p.normalize()
	counts := make([]int64, 0, p.Experiments)
	for i := 0; i < p.Experiments; i++ {
		n, err := wmapt.RunTriggerExperiment(p.Seed+uint64(i)*7919, wmapt.ReverseShell{
			Addr: "10.0.0.1", Port: 4444,
		})
		if err != nil {
			return nil, nil, err
		}
		counts = append(counts, int64(n))
	}
	s := stats.SummarizeInts(counts)
	t := &Table{
		Title:  "Table 3: Triggers required for successful wm_apt transform",
		Header: []string{"", "Min", "Q1", "Med", "Q3", "Max", "Std Dev"},
		Notes: []string{
			fmt.Sprintf("%d experiments, reverse-shell payload, eval multiple %d", p.Experiments, wmapt.DefaultEvalMultiple),
			"paper: Min 1, Q1 2, Med 6, Q3 11, Max 69, Std Dev 12.19",
		},
	}
	t.AddRow("Triggers",
		fmt.Sprintf("%.0f", s.Min), fmt.Sprintf("%.0f", s.Q1), fmt.Sprintf("%.0f", s.Median),
		fmt.Sprintf("%.0f", s.Q3), fmt.Sprintf("%.0f", s.Max), fmt.Sprintf("%.2f", s.StdDev))
	t.AddMetric(benchreport.Metric{Name: "triggers/median", Unit: "count", Value: s.Median,
		Samples: benchreport.Downsample(benchreport.SamplesFromInts(counts), 256)})
	t.AddMetric(benchreport.Metric{Name: "triggers/mean", Unit: "count", Value: s.Mean})
	return t, counts, nil
}

// Figure6 renders the histogram of trigger counts from Table 3's data.
func Figure6(counts []int64) string {
	bins := stats.HistogramInts(counts, 2)
	return "== Figure 6: Histogram of wm_apt triggers yielding successful transform ==\n" +
		stats.RenderHistogram(bins, 50)
}

// Table4 reproduces the SHA-1 gate-correctness experiment: hash a
// message of SHA1Blocks blocks with skelly redundancy s/k/n and report
// per-gate correctness after median and after vote.
func Table4(p Params) (*Table, error) {
	p.normalize()
	m, err := core.NewMachine(p.observe(core.Options{
		Seed:            p.Seed,
		Noise:           noise.PaperIsolated(),
		TrainIterations: 3,
	}))
	if err != nil {
		return nil, err
	}
	sk, err := skelly.New(m, skelly.Config{S: p.SHA1S, K: p.SHA1K, N: p.SHA1N, Verify: true})
	if err != nil {
		return nil, err
	}
	h := sha1wm.New(sk)

	// A message that pads to exactly SHA1Blocks blocks.
	msgLen := p.SHA1Blocks*sha1wm.BlockSize - 9
	msg := make([]byte, msgLen)
	for i := range msg {
		msg[i] = byte('a' + i%26)
	}
	digest, err := h.Sum(msg)
	if err != nil {
		return nil, err
	}
	ok := digest == sha1.Sum(msg)

	t := &Table{
		Title:  fmt.Sprintf("Table 4: Correct / incorrect gate executions in %d-block SHA-1 hash experiment", p.SHA1Blocks),
		Header: []string{"Gate", "Correct After Median", "Correct After Vote"},
		Notes: []string{
			fmt.Sprintf("redundancy s=%d k=%d n=%d; digest %x; matches reference: %v; %.1f%% of intermediate values architecturally visible",
				p.SHA1S, p.SHA1K, p.SHA1N, digest, ok, h.Stats().VisibleFraction()*100),
			"paper (s=10,k=3,n=5, 2 blocks): every vote correct; AND_AND_OR medians 1,794,238/1,794,240",
		},
	}
	for _, g := range []string{"AND", "OR", "NAND", "AND_AND_OR"} {
		c := sk.Counters(g)
		t.AddRow(g,
			fmt.Sprintf("%d/%d = %.6f", c.MedianCorrect, c.MedianOps, ratio(c.MedianCorrect, c.MedianOps)),
			fmt.Sprintf("%d/%d = %.6f", c.VoteCorrect, c.VoteOps, ratio(c.VoteCorrect, c.VoteOps)))
		t.AddMetric(benchreport.Metric{Name: g + "/median_correct", Unit: "ratio",
			Better: benchreport.HigherIsBetter, Value: ratio(c.MedianCorrect, c.MedianOps)})
		t.AddMetric(benchreport.Metric{Name: g + "/vote_correct", Unit: "ratio",
			Better: benchreport.HigherIsBetter, Value: ratio(c.VoteCorrect, c.VoteOps)})
	}
	t.AddMetric(benchreport.Metric{Name: "visible_fraction", Unit: "ratio",
		Value: h.Stats().VisibleFraction()})
	t.AddMetric(benchreport.Metric{Name: "digest_ok", Unit: "bool",
		Better: benchreport.HigherIsBetter, Value: b2f(ok)})
	if !ok {
		t.Notes = append(t.Notes, "WARNING: digest mismatch — a vote error escaped redundancy")
	}
	return t, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func b2f(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// Table5 reproduces the BP/IC gate accuracy evaluation under the §6.1
// isolated-core setup.
func Table5(p Params) (*Table, error) {
	p.normalize()
	m, err := core.NewMachine(p.observe(core.Options{
		Seed:            p.Seed,
		Noise:           noise.PaperIsolated(),
		TrainIterations: 4,
	}))
	if err != nil {
		return nil, err
	}
	rng := noise.NewRNG(p.Seed + 5)
	t := &Table{
		Title:  "Table 5: BPU and instruction cache weird gate accuracy evaluation",
		Header: []string{"Gate", "Operations", "Correct", "Mean Accuracy"},
		Notes:  []string{"paper (320,000 ops): AND 0.99998125, OR 0.9999625"},
	}
	for _, name := range []string{"AND", "OR"} {
		rep, err := measure(m, name, p.Table5Ops, rng)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, fmt.Sprintf("%d", rep.Operations), fmt.Sprintf("%d", rep.Correct),
			fmt.Sprintf("%.8f", rep.Accuracy()))
		t.AddMetric(benchreport.Metric{Name: name + "/accuracy", Unit: "ratio",
			Better: benchreport.HigherIsBetter, Value: rep.Accuracy()})
	}
	return t, nil
}

// delayTable renders per-input-combination delay statistics in the
// shape of Tables 6 and 7.
func delayTable(title string, labels []string, samplesPerRow [][]float64, paperNote string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"Input", "Min", "Q1", "Med", "Q3", "Max", "Std Dev", "Mean"},
		Notes:  []string{paperNote},
	}
	for i, label := range labels {
		s := stats.Summarize(samplesPerRow[i])
		t.AddRow(label,
			fmt.Sprintf("%.0f", s.Min), fmt.Sprintf("%.0f", s.Q1), fmt.Sprintf("%.0f", s.Median),
			fmt.Sprintf("%.0f", s.Q3), fmt.Sprintf("%.0f", s.Max),
			fmt.Sprintf("%.6f", s.StdDev), fmt.Sprintf("%.6f", s.Mean))
		// The delay encodes the logic value, so the metric is neutral:
		// drift either way is a change worth seeing, not a regression.
		t.AddMetric(benchreport.Metric{Name: "delay/" + label + "/median", Unit: "cycles",
			Value: s.Median, Samples: benchreport.Downsample(samplesPerRow[i], 256)})
	}
	return t
}

// delayRows activates the named gate p.Table6Ops times per input
// combination on a paper-noise machine and buckets the read latencies
// by output, then by combination. Aborted reads carry no timing and are
// dropped.
func delayRows(p Params, gate string) ([][]float64, error) {
	m, err := core.NewMachine(p.observe(core.Options{Seed: p.Seed, Noise: noise.Paper()}))
	if err != nil {
		return nil, err
	}
	g, err := core.NewGate(m, gate)
	if err != nil {
		return nil, err
	}
	combos := core.Combinations(g.Arity())
	inputs := make([][]int, 0, len(combos)*p.Table6Ops)
	for _, in := range combos {
		for i := 0; i < p.Table6Ops; i++ {
			inputs = append(inputs, in)
		}
	}
	samples, err := core.CollectTimings(g, inputs)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, g.Outputs()*len(combos))
	for i, s := range samples {
		if readAborted(s.Deltas) {
			continue
		}
		for k, d := range s.Deltas {
			r := k*len(combos) + i/p.Table6Ops
			rows[r] = append(rows[r], float64(d))
		}
	}
	return rows, nil
}

// Table6 reproduces the TSX-AND-OR measurement delay distributions:
// eight rows, one per (gate output, input combination) pair.
func Table6(p Params) (*Table, error) {
	p.normalize()
	rows, err := delayRows(p, "TSX_AND_OR")
	if err != nil {
		return nil, err
	}
	labels := []string{
		"AND (0,0)", "AND (1,0)", "AND (0,1)", "AND (1,1)",
		"OR (0,0)", "OR (1,0)", "OR (0,1)", "OR (1,1)",
	}
	return delayTable("Table 6: TSX-AND-OR measurement delay (CPU cycles)", labels, rows,
		"paper medians: miss rows ≈ 217–224, hit rows ≈ 36; maxima ≈ 5k–21k"), nil
}

// Table7 reproduces the TSX-XOR measurement delay distributions.
func Table7(p Params) (*Table, error) {
	p.normalize()
	rows, err := delayRows(p, "TSX_XOR")
	if err != nil {
		return nil, err
	}
	return delayTable("Table 7: TSX-XOR measurement delay (CPU cycles)", []string{"0,0", "1,0", "0,1", "1,1"}, rows,
		"paper medians: (0,0) and (1,1) ≈ 222 (miss); (0,1) and (1,0) ≈ 36 (hit)"), nil
}

// readAborted recognises the sentinel deltas an aborted read
// transaction reports; those samples carry no timing information.
func readAborted(deltas []int64) bool {
	for _, d := range deltas {
		if d >= 1<<19 {
			return true
		}
	}
	return false
}

// Table8 reproduces the TSX gate accuracy table, counting spurious
// (unrecovered) aborts separately.
func Table8(p Params) (*Table, error) {
	p.normalize()
	m, err := core.NewMachine(p.observe(core.Options{Seed: p.Seed, Noise: noise.Paper()}))
	if err != nil {
		return nil, err
	}
	return table8On(m, p, "Table 8: TSX Gate Accuracy")
}

func table8On(m *core.Machine, p Params, title string) (*Table, error) {
	rng := noise.NewRNG(p.Seed + 8)
	t := &Table{
		Title:  title,
		Header: []string{"Gate", "Correct Ops", "TSX Aborts", "Total Ops", "Mean Accuracy"},
		Notes:  []string{"paper (64,000 ops): AND 0.98250, OR 0.96753, AND-OR 0.97775, XOR 0.92592; 7–12 aborts"},
	}
	for _, name := range []string{"TSX_AND", "TSX_OR", "TSX_AND_OR", "TSX_XOR"} {
		rep, err := measure(m, name, p.Table8Ops, rng)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, fmt.Sprintf("%d", rep.Correct), fmt.Sprintf("%d", rep.SpuriousAborts),
			fmt.Sprintf("%d", rep.Operations), fmt.Sprintf("%.5f", rep.Accuracy()))
		t.AddMetric(benchreport.Metric{Name: name + "/accuracy", Unit: "ratio",
			Better: benchreport.HigherIsBetter, Value: rep.Accuracy()})
		t.AddMetric(benchreport.Metric{Name: name + "/spurious_aborts", Unit: "count",
			Better: benchreport.LowerIsBetter, Value: float64(rep.SpuriousAborts)})
	}
	return t, nil
}

// KDEFigure is the result of FigureKDE: the rendered ASCII figure, the
// two density curves, and the machine-readable timing metrics.
type KDEFigure struct {
	Text    string
	K0, K1  []stats.Point // logic-0 and logic-1 densities
	Metrics []benchreport.Metric
}

// FigureKDE generates the measured-timing kernel density estimates of
// Figures 7 (AND) and 8 (OR): one curve per expected logic level.
func FigureKDE(p Params, gate string) (*KDEFigure, error) {
	p.normalize()
	m, err := core.NewMachine(p.observe(core.Options{
		Seed:            p.Seed,
		Noise:           noise.PaperIsolated(),
		TrainIterations: 4,
	}))
	if err != nil {
		return nil, err
	}
	var figure string
	switch gate {
	case "AND":
		figure = "Figure 7: bp/icache AND Gate - Measured Timing KDE"
	case "OR":
		figure = "Figure 8: bp/icache OR Gate - Measured Timing KDE"
	default:
		return nil, fmt.Errorf("evalharness: unknown KDE gate %q", gate)
	}
	g, err := core.NewGate(m, gate)
	if err != nil {
		return nil, err
	}
	// Bucket each activation by expected logic level as it completes,
	// clipping the interrupt tail so the KDE shows the logic-level
	// boundary, as the paper's figures do. Inputs are drawn bit by bit
	// in vector order, the draws core.RandomInputs makes.
	rng := noise.NewRNG(p.Seed + 7)
	in, bits, deltas := make([]int, g.Arity()), make([]int, g.Outputs()), make([]int64, g.Outputs())
	var c0, c1 []float64
	want := make([]int, 1)
	for i := 0; i < p.FigureOps; i++ {
		for j := range in {
			in[j] = rng.Bit()
		}
		if err := g.Activate(in, bits, deltas); err != nil {
			return nil, err
		}
		if d := deltas[0]; d < 600 {
			if g.Truth(in, want); want[0] == 1 {
				c1 = append(c1, float64(d))
			} else {
				c0 = append(c0, float64(d))
			}
		}
	}
	k0 := stats.KDE(c0, 4, 60)
	k1 := stats.KDE(c1, 4, 60)
	text := "== " + figure + " ==\n-- logic 0 (expected slow reads) --\n" +
		stats.RenderKDE(k0, 50) +
		"-- logic 1 (expected fast reads) --\n" +
		stats.RenderKDE(k1, 50) +
		fmt.Sprintf("threshold = %d cycles\n", m.Threshold())
	s0, s1 := stats.Summarize(c0), stats.Summarize(c1)
	ms := []benchreport.Metric{
		{Name: "timing/logic0/median", Unit: "cycles", Value: s0.Median,
			Samples: benchreport.Downsample(c0, 256)},
		{Name: "timing/logic1/median", Unit: "cycles", Value: s1.Median,
			Samples: benchreport.Downsample(c1, 256)},
		{Name: "threshold", Unit: "cycles", Value: float64(m.Threshold())},
	}
	return &KDEFigure{Text: text, K0: k0, K1: k1, Metrics: ms}, nil
}
