package traceanalyze

import (
	"bytes"
	"strings"
	"testing"

	"uwm/internal/core"
	"uwm/internal/noise"
	"uwm/internal/trace"
)

func sampleEvents() []trace.Event {
	return []trace.Event{
		{Kind: trace.KindCommit, Cycle: 1, PC: 0x40, Text: "XBEGIN fail"},
		{Kind: trace.KindTxBegin, Cycle: 2, PC: 0x40, Text: "xbegin fail"},
		{Kind: trace.KindSpecStart, Cycle: 3, Value: 40, Text: "window open"},
		{Kind: trace.KindSpecExec, Cycle: 4, PC: 0x48},
		{Kind: trace.KindCacheFill, Cycle: 10, Addr: 0x1000, Value: 80, Text: "transient fill"},
		{Kind: trace.KindSpecEnd, Cycle: 43, Value: 2, Text: "window closed"},
		{Kind: trace.KindTxAbort, Cycle: 44, PC: 0x60, Text: "abort"},
		{Kind: trace.KindTimedRead, Cycle: 50, Addr: 0x1000, Value: 30, Text: "gate=TSX_AND out=0 bit=1"},
	}
}

// TestJSONLRoundTrip: events written by trace.JSONLSink must come back
// identical through the offline parser.
func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	sink := trace.NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("complete stream reported truncated")
	}
	if len(res.Events) != len(events) {
		t.Fatalf("got %d events, want %d", len(res.Events), len(events))
	}
	for i, got := range res.Events {
		if got != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got, events[i])
		}
	}
}

// TestParseTruncatedFinalLine: a run killed mid-write leaves a partial
// last line; the parser must return the complete prefix.
func TestParseTruncatedFinalLine(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	sink := trace.NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	cut := whole[:len(whole)-25] // chop into the final line

	res, err := ParseJSONL(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("truncated stream not flagged")
	}
	if len(res.Events) != len(events)-1 {
		t.Fatalf("prefix: got %d events, want %d", len(res.Events), len(events)-1)
	}
	for i, got := range res.Events {
		if got != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got, events[i])
		}
	}
}

func TestParseEmptyFile(t *testing.T) {
	res, err := ParseJSONL(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 0 || res.Truncated {
		t.Errorf("empty file: %+v", res)
	}
	// Blank lines only are equally fine.
	res, err = ParseJSONL(strings.NewReader("\n\n  \n"))
	if err != nil || len(res.Events) != 0 {
		t.Errorf("blank-only file: %+v, %v", res, err)
	}
}

func TestParseRejectsMidFileGarbage(t *testing.T) {
	in := `{"kind":"commit","plane":"arch","cycle":1}
NOT JSON
{"kind":"commit","plane":"arch","cycle":2}
`
	if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
		t.Error("mid-file garbage accepted")
	}
}

func TestParseRejectsUnknownKind(t *testing.T) {
	in := `{"kind":"warp-drive","plane":"uarch","cycle":1}` + "\n"
	if _, err := ParseJSONL(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Errorf("unknown kind: %v", err)
	}
}

func TestParseRejectsChromeFormat(t *testing.T) {
	in := `{"displayTimeUnit":"ns","traceEvents":[` + "\n"
	_, err := ParseJSONL(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "Chrome") {
		t.Errorf("chrome format: %v", err)
	}
}

// TestParseGateText: Analyze decodes timed reads with the shared trace
// codec and skips every payload the codec rejects.
func TestParseGateText(t *testing.T) {
	events := []trace.Event{{Kind: trace.KindTimedRead, Cycle: 1, Value: 30, Text: trace.FormatTimedRead("TSX_AND", 1, 0)}}
	for i, bad := range []string{"", "window open", "gate=X out=0 bit=7", "gate=X bit=1", "out=0 bit=1"} {
		events = append(events, trace.Event{Kind: trace.KindTimedRead, Cycle: int64(i + 2), Value: 30, Text: bad})
	}
	r := Analyze(events, Options{})
	if len(r.Gates) != 1 || r.Gates[0].Gate != "TSX_AND" || r.Gates[0].Reads != 1 || r.Gates[0].Bits[0] != 1 {
		t.Errorf("want exactly the one well-formed read: %+v", r.Gates)
	}
}

// TestAnalyzeSynthetic checks every section of the report over a
// hand-built stream with known answers.
func TestAnalyzeSynthetic(t *testing.T) {
	var events []trace.Event
	cycle := int64(0)
	addCommit := func(n int) {
		for i := 0; i < n; i++ {
			cycle++
			events = append(events, trace.Event{Kind: trace.KindCommit, Cycle: cycle})
		}
	}
	// An activation: window of length L feeding a read of bit b.
	activation := func(l uint64, bit int, lat uint64) {
		addCommit(10)
		cycle++
		events = append(events, trace.Event{Kind: trace.KindTxBegin, Cycle: cycle})
		cycle++
		events = append(events, trace.Event{Kind: trace.KindSpecStart, Cycle: cycle, Value: l})
		// Contention inside the window.
		events = append(events, trace.Event{Kind: trace.KindNoise, Cycle: cycle + 1, Text: "interrupt"})
		events = append(events, trace.Event{Kind: trace.KindCacheEvict, Cycle: cycle + 2, Addr: 0xbeef})
		cycle += int64(l) + 1
		events = append(events, trace.Event{Kind: trace.KindTxAbort, Cycle: cycle})
		cycle++
		events = append(events, trace.Event{Kind: trace.KindTimedRead, Cycle: cycle, Value: lat,
			Text: "gate=TSX_AND out=0 bit=" + string(rune('0'+bit))})
	}
	activation(40, 1, 30)   // short window → hit → bit 1
	activation(200, 0, 250) // long window → miss → bit 0
	activation(40, 1, 32)
	activation(44, 1, 32) // 4th abort crosses the detector's tx minimum
	addCommit(50)

	r := Analyze(events, Options{})
	if r.Events != len(events) {
		t.Errorf("events = %d", r.Events)
	}
	if len(r.Gates) != 1 || r.Gates[0].Gate != "TSX_AND" {
		t.Fatalf("gates: %+v", r.Gates)
	}
	g := r.Gates[0]
	if g.Reads != 4 || g.Bits[0] != 1 || g.Bits[1] != 3 {
		t.Errorf("gate stats: %+v", g)
	}
	if g.LatencyByBit[1].Median != 32 {
		t.Errorf("bit=1 latency median = %v", g.LatencyByBit[1].Median)
	}
	if r.Spec.Windows != 4 {
		t.Errorf("spec windows = %d", r.Spec.Windows)
	}
	// The paper's race, recovered offline: windows feeding bit=1 reads
	// are the short ones.
	if r.Spec.ByOutcome[1].Max != 44 || r.Spec.ByOutcome[0].Min != 200 {
		t.Errorf("spec-by-outcome: %+v", r.Spec.ByOutcome)
	}
	if r.Tx.Begins != 4 || r.Tx.Aborts != 4 || r.Tx.Commits != 0 || r.Tx.AbortFraction != 1 {
		t.Errorf("tx stats: %+v", r.Tx)
	}
	if r.Overlaps.NoiseInWindow != 4 || r.Overlaps.EvictInWindow != 4 {
		t.Errorf("overlaps: %+v", r.Overlaps)
	}
	if !r.Detect.Suspicious {
		t.Errorf("abort-storm trace not flagged: %+v", r.Detect)
	}

	// Both output formats must carry the gate and the verdict.
	table := r.RenderTable()
	for _, want := range []string{"TSX_AND", "SUSPICIOUS", "spec", "abort"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"gate": "TSX_AND"`, `"suspicious": true`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("json missing %q", want)
		}
	}
}

// TestAnalyzeBenignWindow: too little activity yields no verdict.
func TestAnalyzeBenign(t *testing.T) {
	events := []trace.Event{{Kind: trace.KindCommit, Cycle: 1}}
	r := Analyze(events, Options{})
	if r.Detect.Suspicious {
		t.Errorf("tiny benign trace flagged: %+v", r.Detect)
	}
	if len(r.Detect.Reasons) == 0 {
		t.Error("small-window caveat missing")
	}
}

// TestEndToEndGateTrace is the integration path: run real gates with a
// JSONL sink attached, parse the file back, and check the analysis
// recovers the gates and the speculative-window/outcome split.
func TestEndToEndGateTrace(t *testing.T) {
	var buf bytes.Buffer
	sink := trace.NewJSONLSink(&buf)
	m, err := core.NewMachine(core.Options{Seed: 7, Noise: noise.Paper(), TrainIterations: 3, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewTSXAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		a, b := i&1, (i>>1)&1
		if _, err := g.Run(a, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events captured")
	}
	r := Analyze(res.Events, Options{})
	if len(r.Gates) != 1 || r.Gates[0].Gate != "TSX_AND" {
		t.Fatalf("gates: %+v", r.Gates)
	}
	if r.Gates[0].Reads != 8-r.Gates[0].AbortedReads {
		t.Errorf("reads %d + aborted %d != 8 activations", r.Gates[0].Reads, r.Gates[0].AbortedReads)
	}
	if r.Spec.Windows == 0 {
		t.Error("no speculative windows recovered from a TSX gate run")
	}
	if r.Tx.Begins == 0 || r.Tx.Aborts == 0 {
		t.Errorf("tx regions not recovered: %+v", r.Tx)
	}
}
