package traceanalyze

import (
	"strings"
	"testing"

	"uwm/internal/analyzer"
	"uwm/internal/core"
	"uwm/internal/isa"
	"uwm/internal/metrics"
	"uwm/internal/trace"
)

// rules names the rule behind each verdict reason: the text before its
// first number, so rates computed over different instruction counts
// still compare equal.
func rules(reasons []string, skip string) []string {
	var out []string
	for _, r := range reasons {
		if i := strings.IndexAny(r, "0123456789"); i > 0 {
			r = r[:i]
		}
		if !strings.HasPrefix(r, skip) {
			out = append(out, r)
		}
	}
	return out
}

// TestLiveMatchesReplay runs the same window under the live HPC
// detector and through the trace replay: both must reach the same
// verdict for the same reasons, except for the mispredict rule, whose
// counter a trace does not carry. Committed differs on TSX runs because
// the trace drops the instructions of aborted regions with the region.
func TestLiveMatchesReplay(t *testing.T) {
	for _, tc := range []struct {
		name       string
		suspicious bool
		build      func(m *core.Machine) (func(i int) error, error)
	}{
		{"TSX_AND", true, func(m *core.Machine) (func(int) error, error) {
			g, err := core.NewTSXAnd(m)
			return func(i int) error { _, err := g.Run(i&1, i>>1&1); return err }, err
		}},
		{"BP_AND", true, func(m *core.Machine) (func(int) error, error) {
			g, err := core.NewBPAnd(m)
			return func(i int) error { _, err := g.Run(1, i&1); return err }, err
		}},
		{"benign", false, func(m *core.Machine) (func(int) error, error) {
			x := m.Layout().AllocLine("benign.x")
			b := isa.NewBuilder(0x7_000_000)
			b.Label("main").MovI(isa.R1, 200).MovI(isa.R2, 0).Store(x, 0, isa.R2)
			b.Label("loop").
				Load(isa.R3, x, 0).
				AddI(isa.R3, isa.R3, 1).
				Store(x, 0, isa.R3).
				AddI(isa.R1, isa.R1, -1).
				Brnz(isa.R1, "loop").
				Halt()
			p, err := b.Build()
			return func(int) error { _, err := m.CPU().Run(p, "main"); return err }, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			rec := trace.NewRecorder(0)
			m := core.MustNewMachine(core.Options{Seed: 72, TrainIterations: 4, Metrics: reg, Sink: rec})
			run, err := tc.build(m)
			if err != nil {
				t.Fatal(err)
			}
			det := analyzer.NewHPCDetectorFromRegistry(reg, analyzer.DefaultHPCThresholds())
			rec.Reset()
			for i := 0; i < 40; i++ {
				if err := run(i); err != nil {
					t.Fatal(err)
				}
			}
			live := det.Judge()
			replay := Analyze(rec.Events(), Options{}).Detect

			if live.Suspicious != tc.suspicious || replay.Suspicious != tc.suspicious {
				t.Errorf("suspicious: live %v, replay %v, want %v\nlive: %s\nreplay: %v",
					live.Suspicious, replay.Suspicious, tc.suspicious, live, replay.Reasons)
			}
			s := live.Sample
			if int(s.SpecWindows) != replay.SpecWindows || int(s.TxAborts) != replay.TxAborts ||
				int(s.TxCommits) != replay.TxCommits || int(s.CacheFlushes) != replay.CacheFlushes {
				t.Errorf("counts differ: live %+v, replay %+v", s, replay)
			}
			lr, rr := rules(live.Reasons, "mispredict"), rules(replay.Reasons, "mispredict")
			if strings.Join(lr, "|") != strings.Join(rr, "|") {
				t.Errorf("reasons differ: live %q, replay %q", live.Reasons, replay.Reasons)
			}
		})
	}
}
