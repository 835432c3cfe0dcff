package vprof_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"uwm/internal/core"
	"uwm/internal/sha1wm"
	"uwm/internal/skelly"
	"uwm/internal/trace"
	"uwm/internal/traceanalyze"
	"uwm/internal/vprof"
)

// span/end build a synthetic span event pair.
func span(id, parent uint64, name string, cycle int64) trace.Event {
	return trace.Event{Kind: trace.KindSpanBegin, Cycle: cycle, Value: id, Addr: parent, Text: name}
}

func end(id uint64, name string, cycle int64) trace.Event {
	return trace.Event{Kind: trace.KindSpanEnd, Cycle: cycle, Value: id, Text: name}
}

func folded(t *testing.T, p *vprof.Profiler) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSyntheticAttribution(t *testing.T) {
	// program(0..100) > a(10..90) > b(20..50), plus a commit event at
	// cycle 100 defining the run extent.
	p := vprof.FromEvents([]trace.Event{
		span(1, 0, "a", 10),
		span(2, 1, "b", 20),
		end(2, "b", 50),
		end(1, "a", 90),
		{Kind: trace.KindCommit, Cycle: 100},
	})
	if got := p.TotalCycles(); got != 100 {
		t.Fatalf("TotalCycles = %d, want 100", got)
	}
	want := "program 20\nprogram;a 50\nprogram;a;b 30\n"
	if got := folded(t, p); got != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", got, want)
	}
}

func TestMergedSiblingsAndSelfTotal(t *testing.T) {
	// Two spans of the same frame under the root must merge into one
	// node; the selves must sum to the total.
	p := vprof.FromEvents([]trace.Event{
		span(1, 0, "a", 0), end(1, "a", 10),
		span(2, 0, "a", 10), end(2, "a", 30),
		span(3, 0, "c", 40), end(3, "c", 60),
	})
	got := folded(t, p)
	if !strings.Contains(got, "program;a 30\n") {
		t.Errorf("sibling spans not merged:\n%s", got)
	}
	var sum int64
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		var v int64
		for i := len(line) - 1; i >= 0; i-- {
			if line[i] == ' ' {
				for _, c := range line[i+1:] {
					v = v*10 + int64(c-'0')
				}
				break
			}
		}
		sum += v
	}
	if sum != p.TotalCycles() {
		t.Errorf("Σ self = %d, want total %d", sum, p.TotalCycles())
	}
}

func TestTruncatedRecordingIsTolerated(t *testing.T) {
	// An end without its begin (begin fell out of a ring buffer) is
	// skipped; an unclosed begin is closed at the last observed cycle.
	p := vprof.FromEvents([]trace.Event{
		end(7, "lost", 5),
		span(8, 0, "open", 10),
		{Kind: trace.KindCommit, Cycle: 50},
	})
	want := "program;open 40\nprogram 10\n"
	// Folded output is sorted, so normalize the expectation too.
	if got := folded(t, p); got != "program 10\nprogram;open 40\n" {
		t.Fatalf("folded:\n%swant (sorted):\n%s", got, want)
	}
}

// newMachine builds a machine whose spans feed sink, and its fast
// redundancy gate library.
func newMachine(t *testing.T, sink trace.Sink) (*core.Machine, *skelly.Skelly) {
	t.Helper()
	m, err := core.NewMachine(core.Options{Seed: 11, TrainIterations: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := skelly.New(m, skelly.FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, sk
}

// TestLiveAndOfflineProfilesAgree runs one weird 32-bit add on a
// machine teed into a JSONL sink and a live profiler, replays the
// recording offline, and requires identical folded output. The add
// emits nested spans and commits, which is all the round trip needs.
func TestLiveAndOfflineProfilesAgree(t *testing.T) {
	live := vprof.New()
	var jsonl bytes.Buffer
	js := trace.NewJSONLSink(&jsonl)
	_, sk := newMachine(t, trace.Tee(js, live))
	if _, err := sk.Add32(0x89abcdef, 0x12345678); err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := traceanalyze.ParseJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	lf, of := folded(t, live), folded(t, vprof.FromEvents(res.Events))
	if lf != of {
		t.Errorf("live and offline folded output differ:\nlive:\n%s\noffline:\n%s", lf, of)
	}
	for _, frame := range []string{"circuit:add32", "skelly:AND"} {
		if !strings.Contains(lf, frame) {
			t.Errorf("frame %q missing from profile:\n%s", frame, lf)
		}
	}
}

// TestLiveProfileOfSHA1 profiles a full weird SHA-1 digest live and
// checks its frames, its top table and its total against the TSC.
func TestLiveProfileOfSHA1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full weird SHA-1 digest")
	}
	live := vprof.New()
	m, sk := newMachine(t, live)
	if _, err := sha1wm.New(sk).Sum([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	tsc := m.CPU().TSC()
	lf := folded(t, live)
	// The acceptance bound: profile total within 1% of the final
	// simulated TSC. (They are equal by construction — the cpu emits
	// commit events up to the end of the run — but the contract is 1%.)
	if tsc == 0 {
		t.Fatal("machine TSC is 0")
	}
	diff := float64(live.TotalCycles()-tsc) / float64(tsc)
	if diff < -0.01 || diff > 0.01 {
		t.Errorf("profile total %d vs TSC %d: off by %.2f%%", live.TotalCycles(), tsc, 100*diff)
	}
	for _, frame := range []string{"sha1:sum", "sha1:block", "sha1:round", "circuit:add32", "skelly:AND"} {
		if !strings.Contains(lf, frame) {
			t.Errorf("frame %q missing from profile:\n%s", frame, lf)
		}
	}
	var top bytes.Buffer
	if err := live.WriteTop(&top, 10); err != nil {
		t.Fatal(err)
	}
	// Self time concentrates in the leaf component frames; composite
	// frames (sha1:*, circuit:*) show up through their cum column.
	for _, s := range []string{"frame", "branch:train", "mem:read", "program"} {
		if !strings.Contains(top.String(), s) {
			t.Errorf("top table missing %q:\n%s", s, top.String())
		}
	}
}

func TestWritePprofIsWellFormed(t *testing.T) {
	p := vprof.FromEvents([]trace.Event{
		span(1, 0, "a", 10),
		span(2, 1, "b", 20),
		end(2, "b", 50),
		end(1, "a", 90),
		{Kind: trace.KindCommit, Cycle: 100},
	})
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatalf("gzip body: %v", err)
	}
	for _, s := range []string{"virtualcycles", "activations", "program", "a", "b"} {
		if !bytes.Contains(raw, []byte(s)) {
			t.Errorf("decompressed proto missing string %q", s)
		}
	}
}

// TestGoToolPprofReadsProfile is the end-to-end check of the pprof
// encoding: `go tool pprof -top` must parse the file and report the
// frames. Skipped when the go tool is unavailable.
func TestGoToolPprofReadsProfile(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	p := vprof.FromEvents([]trace.Event{
		span(1, 0, "circuit:xor", 10),
		span(2, 1, "gate:AND", 20),
		end(2, "gate:AND", 70),
		end(1, "circuit:xor", 90),
		{Kind: trace.KindCommit, Cycle: 100},
	})
	dir := t.TempDir()
	file := filepath.Join(dir, "cycles.pb.gz")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WritePprof(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-unit=cycles", file)
	cmd.Env = append(os.Environ(), "PPROF_NO_BROWSER=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top failed: %v\n%s", err, out)
	}
	for _, s := range []string{"gate:AND", "circuit:xor", "program"} {
		if !strings.Contains(string(out), s) {
			t.Errorf("pprof -top output missing %q:\n%s", s, out)
		}
	}
}
