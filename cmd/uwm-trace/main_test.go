package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uwm/internal/core"
	"uwm/internal/health"
	"uwm/internal/noise"
	"uwm/internal/trace"
)

// writeGateTrace produces a real JSONL trace by running a TSX gate with
// the streaming sink attached — the same path `uwm-gates -trace-out`
// uses. Each gate run gets its own annotated span, mimicking how the
// engine brackets jobs, so the -job filter has something to select.
func writeGateTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewJSONLSink(f)
	m, err := core.NewMachine(core.Options{Seed: 11, Noise: noise.Paper(), TrainIterations: 3, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewTSXAndOr(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		id := m.BeginSpan("job:gate")
		m.Annotate(fmt.Sprintf("job=job-%08d", i+1))
		if _, err := g.Run(i&1, (i>>1)&1); err != nil {
			t.Fatal(err)
		}
		m.EndSpan(id)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBothFormats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeGateTrace(t, path)
	for _, format := range []string{"table", "json"} {
		if code := realMain([]string{"-format", format, path}); code != 0 {
			t.Errorf("realMain(-format %s) = %d, want 0", format, code)
		}
	}
}

func TestCLIUsageErrors(t *testing.T) {
	if code := realMain(nil); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := realMain([]string{"-format", "xml", "x.jsonl"}); code != 2 {
		t.Errorf("bad format: exit %d, want 2", code)
	}
	if code := realMain([]string{filepath.Join(t.TempDir(), "missing.jsonl")}); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code := realMain([]string{"profile", "-format", "xml", "x.jsonl"}); code != 2 {
		t.Errorf("profile bad format: exit %d, want 2", code)
	}
	if code := realMain([]string{"profile"}); code != 2 {
		t.Errorf("profile no args: exit %d, want 2", code)
	}
}

// stdoutTo redirects os.Stdout into a file and returns its path.
func stdoutTo(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	t.Cleanup(func() {
		os.Stdout = old
		f.Close()
	})
	return path
}

func TestCLIHealthMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeGateTrace(t, path)

	out := stdoutTo(t)
	if code := realMain([]string{"-health", "-format", "json", path}); code != 0 {
		t.Fatalf("-health -format json: exit %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap health.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("health output is not a snapshot: %v\n%s", err, data)
	}
	if snap.Calibrations != 1 || snap.Threshold == 0 {
		t.Errorf("replayed snapshot missing calibration: %+v", snap)
	}
	if snap.Reads == 0 {
		t.Error("replayed snapshot saw no timed reads")
	}

	// Table format renders without error.
	if code := realMain([]string{"-health", path}); code != 0 {
		t.Errorf("-health table: exit %d", code)
	}
}

func TestCLIJobFilter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeGateTrace(t, path)

	// A single job's health replay sees fewer reads than the whole
	// trace, but still knows the threshold from the merged-in
	// calibration event.
	out := stdoutTo(t)
	if code := realMain([]string{"-health", "-format", "json", "-job", "job-00000002", path}); code != 0 {
		t.Fatalf("-health -job: exit %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var one health.Snapshot
	if err := json.Unmarshal(data, &one); err != nil {
		t.Fatal(err)
	}
	if one.Threshold == 0 || one.Calibrations != 1 {
		t.Errorf("job-filtered replay lost the calibration: %+v", one)
	}
	if one.Reads == 0 {
		t.Error("job-filtered replay saw no reads")
	}
	whole := health.Replay(mustParse(t, path)).Snapshot()
	if one.Reads >= whole.Reads {
		t.Errorf("job filter kept %d of %d reads, want a strict subset", one.Reads, whole.Reads)
	}

	// The analyze path accepts -job too; an unknown id is an error.
	if code := realMain([]string{"-job", "job-00000001", path}); code != 0 {
		t.Errorf("analyze -job: exit %d", code)
	}
	if code := realMain([]string{"-job", "job-99999999", path}); code != 1 {
		t.Errorf("unknown -job: exit %d, want 1", code)
	}
}

func mustParse(t *testing.T, path string) []trace.Event {
	t.Helper()
	parsed, code := parseArg(path)
	if parsed == nil {
		t.Fatalf("parseArg(%s): exit %d", path, code)
	}
	return parsed.Events
}

// stdinFrom redirects os.Stdin to the given file for one test.
func stdinFrom(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = f
	t.Cleanup(func() {
		os.Stdin = old
		f.Close()
	})
}

func TestCLIReadsStdin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeGateTrace(t, path)
	stdinFrom(t, path)
	if code := realMain([]string{"-"}); code != 0 {
		t.Errorf("realMain(-) = %d, want 0", code)
	}
}

func TestCLIProfileMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	writeGateTrace(t, path)

	for _, format := range []string{"top", "folded"} {
		if code := realMain([]string{"profile", "-format", format, path}); code != 0 {
			t.Errorf("profile -format %s: exit %d, want 0", format, code)
		}
	}

	folded := filepath.Join(dir, "cycles.folded")
	if code := realMain([]string{"profile", "-format", "folded", "-o", folded, path}); code != 0 {
		t.Fatalf("profile -o: nonzero exit %d", code)
	}
	data, err := os.ReadFile(folded)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] == 0 {
		t.Fatalf("folded output empty or binary: %q", data[:min(len(data), 40)])
	}

	pb := filepath.Join(dir, "cycles.pb.gz")
	if code := realMain([]string{"profile", "-format", "pprof", "-o", pb, path}); code != 0 {
		t.Fatalf("profile pprof: nonzero exit %d", code)
	}
	gz, err := os.ReadFile(pb)
	if err != nil {
		t.Fatal(err)
	}
	if len(gz) < 2 || gz[0] != 0x1f || gz[1] != 0x8b {
		t.Fatalf("pprof output is not gzip (magic %x)", gz[:min(len(gz), 2)])
	}

	// Profile mode must accept stdin too.
	stdinFrom(t, path)
	if code := realMain([]string{"profile", "-"}); code != 0 {
		t.Errorf("profile -: exit %d, want 0", code)
	}
}
