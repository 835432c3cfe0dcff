// Command uwm-trace is the offline trace analyzer: it parses the JSONL
// event stream a `-trace-out file.jsonl` run produced and computes the
// reports the live path cannot — per-gate timeline reconstruction,
// speculative-window length distributions versus gate outcome (the
// paper's §4 race), contention detection inside open windows, and an
// HPC-style detectability summary replayed from the trace (§7).
//
// The profile mode rebuilds the virtual-cycle profile from a recording,
// producing exactly what a live `-cycleprof` session would have written
// for the same events:
//
//	uwm-gates -op tsx_and -truth -trace-out run.jsonl
//	uwm-trace run.jsonl                     # human-readable report
//	uwm-trace -format json run.jsonl | jq . # machine-readable report
//	uwm-trace - < run.jsonl                 # read from stdin
//	uwm-trace profile run.jsonl                      # top table
//	uwm-trace profile -format folded run.jsonl       # flamegraph stacks
//	uwm-trace profile -format pprof -o cyc.pb.gz run.jsonl
//
// The health mode replays the recording through the same gate-health
// monitor the serving workers run, so an offline verdict on a recorded
// trace matches what the live /v1/health/detail endpoint reported:
//
//	uwm-trace -health run.jsonl             # margin histogram + drift verdict
//	uwm-trace -health -format json run.jsonl
//	uwm-trace -job job-00000003 run.jsonl   # only that job's spans
//
// With -from, the recording is fetched from a live (or recently live)
// uwm-serve flight recorder instead of a file — the post-mortem loop
// without ever touching the server's disk:
//
//	uwm-trace -from http://127.0.0.1:8080 -job job-00000003
//	uwm-trace -from http://127.0.0.1:8080 -job <request id> -health
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"uwm/internal/health"
	"uwm/internal/obs"
	"uwm/internal/trace"
	"uwm/internal/traceanalyze"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// realMain returns main's exit code so tests can drive the CLI.
func realMain(args []string) int {
	if len(args) > 0 && args[0] == "profile" {
		return profileMain(args[1:])
	}
	fs := flag.NewFlagSet("uwm-trace", flag.ContinueOnError)
	format := fs.String("format", "table", "output format: table or json")
	maxOverlaps := fs.Int("max-overlaps", 8, "contention incidents to list individually (counts stay exact)")
	healthMode := fs.Bool("health", false, "replay the trace through the gate-health monitor instead of analyzing it")
	job := fs.String("job", "", "restrict to spans annotated with this job or request id")
	from := fs.String("from", "", "fetch the trace from this uwm-serve base URL's flight recorder (requires -job) instead of reading a file")
	version := obs.AddVersionFlag(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: uwm-trace [-format table|json] [-health] [-job id] <trace.jsonl | ->\n")
		fmt.Fprintf(fs.Output(), "       uwm-trace [-format table|json] [-health] -from http://host:port -job id\n")
		fmt.Fprintf(fs.Output(), "       uwm-trace profile [-format top|folded|pprof] [-top n] [-o file] <trace.jsonl | ->\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		obs.PrintVersion(os.Stdout, "uwm-trace")
		return 0
	}
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "uwm-trace: unknown format %q (want table or json)\n", *format)
		return 2
	}

	var (
		parsed *traceanalyze.ParseResult
		code   int
	)
	fetched := *from != ""
	if fetched {
		if *job == "" {
			fmt.Fprintln(os.Stderr, "uwm-trace: -from requires -job <job or request id>")
			return 2
		}
		if fs.NArg() != 0 {
			fs.Usage()
			return 2
		}
		parsed, code = fetchTrace(*from, *job)
	} else {
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		parsed, code = parseArg(fs.Arg(0))
	}
	if parsed == nil {
		return code
	}
	events := parsed.Events
	// A fetched flight-record is already scoped to one job and seeded
	// with the monitor's state checkpoint, so the annotation filter (and
	// its calibration merge) only applies to on-disk multi-job streams.
	if *job != "" && !fetched {
		if events = traceanalyze.FilterByAnnotation(events, *job); len(events) == 0 {
			fmt.Fprintf(os.Stderr, "uwm-trace: no spans annotated with %q in the trace\n", *job)
			return 1
		}
	}

	if *healthMode {
		if *job != "" && !fetched {
			// A job-filtered replay still needs the calibration events:
			// they fire at machine construction and on recalibration,
			// outside any job span, and carry the threshold every margin
			// is measured against.
			events = mergeCalibrations(parsed.Events, events)
		}
		return healthMain(events, *format)
	}

	report := traceanalyze.Analyze(events, traceanalyze.Options{MaxOverlapSamples: *maxOverlaps})
	report.Truncated = parsed.Truncated

	switch *format {
	case "json":
		if err := report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "uwm-trace: %v\n", err)
			return 1
		}
	default:
		fmt.Print(report.RenderTable())
	}
	return 0
}

// healthMain is the `-health` mode: replay the recording through a
// fresh gate-health monitor — identical code to the live workers' — and
// print its snapshot.
func healthMain(events []trace.Event, format string) int {
	snap := health.Replay(events).Snapshot()
	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintf(os.Stderr, "uwm-trace: %v\n", err)
			return 1
		}
		return 0
	}
	if snap.Reads == 0 {
		fmt.Fprintf(os.Stderr, "uwm-trace: warning: recording holds no timed reads; was it captured with tracing enabled?\n")
	}
	fmt.Print(health.RenderSnapshot(snap, 48))
	return 0
}

// mergeCalibrations re-inserts the calibration events of the full
// stream into a filtered subsequence, preserving order.
func mergeCalibrations(full, filtered []trace.Event) []trace.Event {
	out := make([]trace.Event, 0, len(filtered))
	j := 0
	for _, e := range full {
		switch {
		case j < len(filtered) && e == filtered[j]:
			out = append(out, e)
			j++
		case e.Kind == trace.KindCalibration:
			out = append(out, e)
		}
	}
	return out
}

// profileMain is the `uwm-trace profile` mode: rebuild the
// virtual-cycle profile offline from a JSONL recording.
func profileMain(args []string) int {
	fs := flag.NewFlagSet("uwm-trace profile", flag.ContinueOnError)
	format := fs.String("format", "top", "output format: top, folded or pprof")
	topN := fs.Int("top", 20, "rows in the top table (0 = all)")
	out := fs.String("o", "", "write to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: uwm-trace profile [-format top|folded|pprof] [-top n] [-o file] <trace.jsonl | ->\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "top", "folded", "pprof":
	default:
		fmt.Fprintf(os.Stderr, "uwm-trace: unknown profile format %q (want top, folded or pprof)\n", *format)
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	parsed, code := parseArg(fs.Arg(0))
	if parsed == nil {
		return code
	}
	prof := traceanalyze.BuildProfile(parsed.Events)
	if prof.SpanEvents() == 0 {
		fmt.Fprintf(os.Stderr, "uwm-trace: warning: recording holds no span events; the profile only covers the program frame\n")
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uwm-trace: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	var err error
	switch *format {
	case "folded":
		err = prof.WriteFolded(w)
	case "pprof":
		err = prof.WritePprof(w)
	default:
		err = prof.WriteTop(w, *topN)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "uwm-trace: %v\n", err)
		return 1
	}
	return 0
}

// fetchTrace downloads a kept flight-record from a live uwm-serve
// (GET /v1/jobs/{id}/trace?format=jsonl) and parses it with the same
// truncation handling as a file, so a trace cut off by a dying
// connection still analyzes its intact prefix. A nil result carries
// the exit code.
func fetchTrace(base, id string) (*traceanalyze.ParseResult, int) {
	u := strings.TrimRight(base, "/") + "/v1/jobs/" + url.PathEscape(id) + "/trace?format=jsonl"
	resp, err := http.Get(u)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uwm-trace: %v\n", err)
		return nil, 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(os.Stderr, "uwm-trace: %s: %s\n%s", u, resp.Status, body)
		return nil, 1
	}
	parsed, err := traceanalyze.ParseJSONL(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uwm-trace: %v\n", err)
		return nil, 1
	}
	if parsed.Truncated {
		fmt.Fprintf(os.Stderr, "uwm-trace: warning: truncated final line dropped; analyzing the %d-event prefix\n", len(parsed.Events))
	}
	return parsed, 0
}

// parseArg reads a JSONL recording from the path or stdin ("-"),
// reporting errors and truncation on stderr. A nil result carries the
// exit code.
func parseArg(path string) (*traceanalyze.ParseResult, int) {
	var (
		parsed *traceanalyze.ParseResult
		err    error
	)
	if path == "-" {
		parsed, err = traceanalyze.ParseJSONL(os.Stdin)
	} else {
		parsed, err = traceanalyze.ParseFile(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "uwm-trace: %v\n", err)
		return nil, 1
	}
	if parsed.Truncated {
		fmt.Fprintf(os.Stderr, "uwm-trace: warning: truncated final line dropped; analyzing the %d-event prefix\n", len(parsed.Events))
	}
	return parsed, 0
}
