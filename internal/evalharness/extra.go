package evalharness

import (
	"fmt"

	"uwm/internal/benchreport"
	"uwm/internal/core"
	"uwm/internal/covert"
	"uwm/internal/noise"
)

// ExtraChannels measures every Table 1 weird register as a covert
// channel (§3.1's framing: "two entities construct a communication
// channel by writing and reading to and from a common WR"). Not a paper
// table — an extension experiment quantifying the storage primitives
// the paper lists qualitatively: bandwidth at the simulated 2.3 GHz,
// error rate, and the cycle cost of one bit.
func ExtraChannels(p Params) (*Table, error) {
	p.normalize()
	m, err := core.NewMachine(p.observe(core.Options{
		Seed:            p.Seed,
		Noise:           noise.PaperIsolated(),
		TrainIterations: 4,
	}))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extra: Table 1 weird registers as covert channels",
		Header: []string{"Register", "Bits", "Errors", "Error Rate", "Cycles/bit", "Bits/s @2.3GHz"},
		Notes: []string{
			"one write+read per bit, no redundancy; §3.1's covert-channel framing of each WR",
			"contention registers are volatile: they trade bandwidth and reliability for stealth",
		},
	}

	bits := p.Table8Ops / 8
	if bits < 500 {
		bits = 500
	}
	rng := noise.NewRNG(p.Seed + 21)
	for _, c := range core.Registers() {
		wr, err := c.New(m)
		if err != nil {
			return nil, fmt.Errorf("evalharness: building %s: %w", c.Name, err)
		}
		rep, err := covert.Measure(m, covert.NewChannel(wr, 1), bits, rng)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.Name,
			fmt.Sprintf("%d", rep.Bits),
			fmt.Sprintf("%d", rep.Errors),
			fmt.Sprintf("%.5f", rep.ErrorRate()),
			fmt.Sprintf("%.0f", float64(rep.Cycles)/float64(rep.Bits)),
			fmt.Sprintf("%.0f", rep.BitsPerSecond(p.ClockHz)))
		t.AddMetric(benchreport.Metric{Name: c.Name + "/error_rate", Unit: "ratio",
			Better: benchreport.LowerIsBetter, Value: rep.ErrorRate()})
		t.AddMetric(benchreport.Metric{Name: c.Name + "/bits_per_sec", Unit: "bit/s",
			Better: benchreport.HigherIsBetter, Value: rep.BitsPerSecond(p.ClockHz)})
	}
	return t, nil
}
