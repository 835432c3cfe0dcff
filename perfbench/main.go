// Command perfbench is the repository's benchmark: it drives the
// weird-machine stack through one of three closed-loop workloads and
// prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload gates --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs an untraced
// phase and then a traced one, each for half of --seconds, reports the
// per-layer metrics of the traced phase, and writes its spans, their
// self times and the tracing overhead to the state directory. See
// perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed to tune against; README.md records the
// held-out seed a claimed gain must also hold on.
const defaultSeed = 1

// perLayer are the metrics a traced run reports, in BENCHMARK.json
// order. A layer a workload does not reach reads 0 on that workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cpu.host_ns_per_inst", "ns"},
		{"cpu.insts_per_op", "count"},
		{"cpu.mispredicts_per_op", "count"},
		{"cpu.spec_window_cycles_mean", "cycles"},
		{"cpu.tx_aborts_per_op", "count"},
		{"cache.accesses_per_op", "count"},
		{"cache.miss_ratio", "ratio"},
		{"cache.flushes_per_op", "count"},
		{"branch.predictions_per_op", "count"},
		{"branch.btb_hit_ratio", "ratio"},
		{"core.bp.host_us_per_op", "us"},
		{"core.tsx.host_us_per_op", "us"},
	}
	for _, g := range gateNames {
		defs = append(defs, metricDef{"core." + g + ".accuracy", "ratio"})
	}
	for _, g := range gateNames {
		defs = append(defs, metricDef{"core." + g + ".sim_cycles_per_op", "cycles"})
	}
	for _, p := range []string{"train", "ic_write", "write_input", "prep", "fire", "read"} {
		defs = append(defs, metricDef{"core.phase." + p + ".sim_cycles_per_op", "cycles"})
	}
	return append(defs, []metricDef{
		{"core.setup_ms", "ms"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"skelly.gate_ops_per_logical_op", "count"},
		{"skelly.vote_correct_ratio", "ratio"},
		{"circopt.plan_cache_hit_ratio", "ratio"},
		{"circopt.gates_out_per_in", "ratio"},
		{"circopt.compile_ms", "ms"},
		{"circopt.eval_ms_per_vector", "ms"},
		{"circopt.serial_eval_ms_per_vector", "ms"},
		{"engine.queue_ms.p50", "ms"},
		{"engine.queue_ms.p90", "ms"},
		{"engine.run_ms.p50", "ms"},
		{"engine.run_ms.p90", "ms"},
		{"engine.attempts_per_job", "count"},
		{"engine.retries_per_job", "count"},
		{"engine.disagreements", "count"},
		{"engine.recalibrations", "count"},
		{"engine.setup_ms", "ms"},
		{"flightrec.kept_per_job", "count"},
		{"slo.observations_per_job", "count"},
		{"evlog.records_per_job", "count"},
		{"trace.dropped_events_per_job", "count"},
		{"httpapi.handler_ms.p50", "ms"},
		{"httpapi.handler_ms.p90", "ms"},
		{"httpapi.overhead_ms.p50", "ms"},
		{"cluster.hop_ms.p50", "ms"},
		{"cluster.hop_ms.p90", "ms"},
		{"cluster.cache_hit_ratio", "ratio"},
		{"cluster.cache_hit_ms.p50", "ms"},
		{"cluster.hedges_per_request", "count"},
		{"cluster.max_backend_share", "ratio"},
	}...)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain returns the exit code: 0 for a correct run, 1 for a run
// whose outputs failed a check (its result line is still printed), 2
// for a run that could not be made.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every input is a function of it")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	state := fs.String("state", "", "directory keeping each seed's output digest and the traced run's spans (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s}, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames, "|"))
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))

	res, err := run(*name, w, *seed, window, *traced == 1, *state, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func run(name string, w workload, seed uint64, window time.Duration, traced bool, state string, stdout, stderr io.Writer) (*result, error) {
	var findings []string
	report := func(label string, p *phase) {
		fmt.Fprintf(stdout, "%s %s seed=%d: %d ops in %.2fs, %d latency samples, %d attempted, %d failed\n",
			name, label, seed, p.ops, p.elapsed.Seconds(), p.lat.count(), p.attempted, p.failed)
		for _, f := range p.findings {
			findings = append(findings, label+": "+f)
		}
	}

	var (
		untraced, tracedPhase *phase
		tr                    *tracer
		err                   error
	)
	if !traced {
		if untraced, err = w(seed, window, nil); err != nil {
			return nil, err
		}
		report("untraced", untraced)
	} else {
		if untraced, err = w(seed, window/2, nil); err != nil {
			return nil, err
		}
		report("untraced", untraced)
		tr = newTracer()
		if tracedPhase, err = w(seed, window/2, tr); err != nil {
			return nil, err
		}
		report("traced", tracedPhase)
		if tracedPhase.digest != untraced.digest {
			findings = append(findings, "the traced phase's output digest differs from the untraced phase's")
		}
	}
	fmt.Fprintf(stdout, "digest %s seed=%d %s\n", name, seed, untraced.digest)
	e2e := untraced.e2e()
	if f, err := checkDigest(state, name, seed, untraced.digest); err != nil {
		return nil, err
	} else if f != "" {
		findings = append(findings, f)
	}

	res := &result{Metrics: make(map[string]metricValue)}
	for _, p := range []*phase{untraced, tracedPhase} {
		if p != nil {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
	}
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	} else {
		layers := perLayerMetrics(name, untraced, tracedPhase)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
		}
		te := tracedPhase.e2e()
		over := make(map[string]float64, len(e2e))
		for k, v := range te {
			over[k] = v - e2e[k]
		}
		fmt.Fprintf(stdout, "tracing overhead (traced - untraced): ops_per_s %+.4g, latency_p50_ms %+.4g, cpu_ms_per_op %+.4g\n",
			over["ops_per_s"], over["latency_p50_ms"], over["cpu_ms_per_op"])
		if state != "" {
			tr.computeSelf()
			path := filepath.Join(state, fmt.Sprintf("trace-%s-%d.json", name, seed))
			if err := tr.write(path, traceFile{Workload: name, Seed: seed, Overhead: over,
				Untraced: e2e, Traced: te, PerLayer: layers}); err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", k)
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Fprintln(stderr, "perfbench: finding:", f)
	}
	res.Correct = len(findings) == 0 && res.Failed == 0
	return res, nil
}

// perLayerMetrics assembles a traced run's per-layer metrics: counts
// from the traced phase, host times from the untraced one (the gates
// machine's event sink would inflate them), runtime counters from the
// traced phase's window.
func perLayerMetrics(name string, untraced, traced *phase) map[string]float64 {
	l := make(map[string]float64)
	for k, v := range traced.layers {
		l[k] = v
	}
	if name == "gates" {
		for _, k := range []string{"core.bp.host_us_per_op", "core.tsx.host_us_per_op"} {
			l[k] = untraced.layers[k]
		}
		l["cpu.host_ns_per_inst"] = ratio(untraced.layers["core.host_ns_per_op"], l["cpu.insts_per_op"])
		l["core.setup_ms"] = traced.setupMS()
	}
	runtimeLayer(traced.rtBefore, traced.rtAfter, traced.ops, l)
	return l
}

// checkDigest compares a run's output digest with the one recorded for
// the same workload and seed by an earlier run, and records it when it
// is the first. It returns a finding when they differ.
func checkDigest(state, name string, seed uint64, digest string) (string, error) {
	if state == "" {
		return "", nil
	}
	path := filepath.Join(state, fmt.Sprintf("digest-%s-%d", name, seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if p := strings.TrimSpace(string(prev)); p != digest {
			return fmt.Sprintf("output digest %s differs from %s recorded by an earlier run of this seed", digest, p), nil
		}
		return "", nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(state, 0o755); err != nil {
			return "", err
		}
		return "", os.WriteFile(path, []byte(digest+"\n"), 0o644)
	default:
		return "", err
	}
}
