package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTiny runs one short benchmark invocation in process and returns
// its exit code, its parsed result line and its standard error.
func runTiny(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result (%v):\n%s\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

// TestTinyRunsReportEveryMetric runs each workload briefly, untraced
// and traced, and checks that each prints every declared metric with
// its unit and a finite value, and that the run is correct.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	state := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				code, res, stderr := runTiny(t, "--workload", w, "--seed", "5", "--seconds", "0.4", "--trace", trace, "--state", state)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d/%d failed:\n%s", code, res.Correct, res.Failed, res.Attempted, stderr)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", d.name, m.Value)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
		if _, err := os.Stat(filepath.Join(state, fmt.Sprintf("trace-%s-5.json", w))); err != nil {
			t.Errorf("%s: traced run wrote no spans: %v", w, err)
		}
	}
}

// TestDigestMismatchFailsTheRun checks that a run whose outputs differ
// from an earlier run of the same seed is reported incorrect and exits
// non-zero.
func TestDigestMismatchFailsTheRun(t *testing.T) {
	state := t.TempDir()
	args := []string{"--workload", "gates", "--seed", "9", "--seconds", "0.05", "--state", state}
	if code, res, stderr := runTiny(t, args...); code != 0 || !res.Correct {
		t.Fatalf("first run: exit %d:\n%s", code, stderr)
	}
	if code, res, stderr := runTiny(t, args...); code != 0 || !res.Correct {
		t.Fatalf("second run of the same seed: exit %d:\n%s", code, stderr)
	}
	path := filepath.Join(state, "digest-gates-9")
	if err := os.WriteFile(path, []byte("0000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, res, stderr := runTiny(t, args...)
	if code == 0 || res.Correct || !strings.Contains(stderr, "differs") {
		t.Fatalf("tampered digest: exit %d, correct %v:\n%s", code, res.Correct, stderr)
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json declares
// exactly the workloads and metrics the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int64) int64 { return ms * 1e6 }
	tr.spans = []span{
		{ID: 1, Name: "client", Req: "r", Start: at(0), End: at(10)},
		{ID: 2, Name: "gw", Req: "r", Start: at(1), End: at(9)},
		{ID: 3, Name: "backend", Req: "r", Start: at(2), End: at(6)},
		{ID: 4, Name: "backend", Req: "r", Start: at(4), End: at(8)}, // a hedge, overlapping the first
		{ID: 5, Name: "client", Req: "q", Start: at(0), End: at(3)},
	}
	tr.totals = map[string]*spanTotal{"client": {}, "gw": {}, "backend": {}}
	tr.link(map[string]string{"gw": "client", "backend": "gw"})
	tr.computeSelf()
	for id, want := range map[int]int64{1: at(2), 2: at(2), 3: at(4), 4: at(4), 5: at(3)} {
		if got := tr.spans[id-1].Self; got != want {
			t.Errorf("span %d self = %dns, want %dns", id, got, want)
		}
	}
	if tr.spans[1].Parent != 1 || tr.spans[2].Parent != 2 || tr.spans[3].Parent != 2 {
		t.Errorf("parents %d %d %d, want 1 2 2", tr.spans[1].Parent, tr.spans[2].Parent, tr.spans[3].Parent)
	}
}
