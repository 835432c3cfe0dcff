package evalharness

import "uwm/internal/benchreport"

// RunResult is the uniform output of one registry experiment: the
// rendered human-readable text plus the machine-readable metrics that
// back it. cmd/uwm-bench prints Text and serialises Metrics into the
// BENCH_*.json report.
type RunResult struct {
	Name    string
	Text    string
	Metrics []benchreport.Metric
}

// Registered is one runnable experiment. Table/Figure mirror the
// uwm-bench selection flags; both are zero for the named extras
// (ablations, extra channels).
type Registered struct {
	Name          string
	Table, Figure int
	Run           func(Params) (*RunResult, error)
}

func fromTable(name string, f func(Params) (*Table, error)) func(Params) (*RunResult, error) {
	return func(p Params) (*RunResult, error) {
		t, err := f(p)
		if err != nil {
			return nil, err
		}
		return &RunResult{Name: name, Text: t.Render(), Metrics: t.Metrics}, nil
	}
}

// Registry returns every runnable experiment in canonical order. The
// list is rebuilt per call so entries can be run concurrently-safely
// and so callers may filter it destructively.
func Registry() []Registered {
	return []Registered{
		{Name: "table2", Table: 2, Run: fromTable("table2", Table2)},
		{Name: "table3", Table: 3, Run: func(p Params) (*RunResult, error) {
			t, _, err := Table3(p)
			if err != nil {
				return nil, err
			}
			return &RunResult{Name: "table3", Text: t.Render(), Metrics: t.Metrics}, nil
		}},
		{Name: "table4", Table: 4, Run: fromTable("table4", Table4)},
		{Name: "table5", Table: 5, Run: fromTable("table5", Table5)},
		{Name: "table6", Table: 6, Run: fromTable("table6", Table6)},
		{Name: "table7", Table: 7, Run: fromTable("table7", Table7)},
		{Name: "table8", Table: 8, Run: fromTable("table8", Table8)},
		{Name: "figure6", Figure: 6, Run: func(p Params) (*RunResult, error) {
			// Figure 6 is a histogram view of Table 3's trigger counts;
			// the run is deterministic, so regenerating them is exact.
			_, counts, err := Table3(p)
			if err != nil {
				return nil, err
			}
			return &RunResult{Name: "figure6", Text: Figure6(counts)}, nil
		}},
		{Name: "figure7", Figure: 7, Run: func(p Params) (*RunResult, error) {
			f, err := FigureKDE(p, "AND")
			if err != nil {
				return nil, err
			}
			return &RunResult{Name: "figure7", Text: f.Text, Metrics: f.Metrics}, nil
		}},
		{Name: "figure8", Figure: 8, Run: func(p Params) (*RunResult, error) {
			f, err := FigureKDE(p, "OR")
			if err != nil {
				return nil, err
			}
			return &RunResult{Name: "figure8", Text: f.Text, Metrics: f.Metrics}, nil
		}},
		{Name: "ablations", Run: fromTable("ablations", Ablations)},
		{Name: "extra", Run: fromTable("extra", ExtraChannels)},
		{Name: "engine", Run: fromTable("engine", EngineThroughput)},
		{Name: "health", Run: fromTable("health", GateHealth)},
		{Name: "circuit", Run: fromTable("circuit", CircuitThroughput)},
	}
}
