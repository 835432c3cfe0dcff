package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"time"
)

// setupRepeats is how many times each phase builds its system under
// test; setup_s is the median, and only the last build is measured.
const setupRepeats = 9

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json
// order. "op" is the workload's unit of work: one gate activation on
// gates, one job on circuit, one HTTP request on serve.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"accuracy", "ratio"},
	{"sim_cycles_per_op", "cycles"},
	{"success_ratio", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// phase is what one timed phase of a workload measured. A run is one
// untraced phase; a traced run is an untraced phase followed by a
// traced one.
type phase struct {
	setups []time.Duration

	// The timed window: gate evaluations and operations completed in
	// it, its wall and CPU time, and operation latencies.
	elapsed time.Duration
	gateOps int64
	ops     int64
	cpu     time.Duration
	lat     *latencies

	// Every operation sent, warm-up prefix included, and those that
	// failed a check.
	attempted, failed int64

	// The fixed warm-up prefix: output bits matching the truth, virtual
	// cycles per gate activation, and the digest of its outputs. All
	// three are exact functions of the seed.
	correctBits, totalBits int64
	simCycles, simActs     int64
	digest                 string

	// findings are correctness failures, one line each.
	findings []string

	// layers holds the per-layer metrics of a traced phase.
	layers map[string]float64

	rtBefore, rtAfter runtimeSample
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.findings) < 20 {
		p.findings = append(p.findings, fmt.Sprintf(format, args...))
	}
}

// setupMS is the median build time in milliseconds.
func (p *phase) setupMS() float64 {
	ms := make([]float64, len(p.setups))
	for i, d := range p.setups {
		ms[i] = float64(d) / 1e6
	}
	return median(ms)
}

// e2e derives the end-to-end metrics of a phase.
func (p *phase) e2e() map[string]float64 {
	sec := p.elapsed.Seconds()
	return map[string]float64{
		"setup_s":           p.setupMS() / 1e3,
		"ops_per_s":         ratio(float64(p.gateOps), sec),
		"jobs_per_s":        ratio(float64(p.ops), sec),
		"latency_p50_ms":    p.lat.quantile(0.50),
		"latency_p90_ms":    p.lat.quantile(0.90),
		"latency_p99_ms":    p.lat.quantile(0.99),
		"accuracy":          ratio(float64(p.correctBits), float64(p.totalBits)),
		"sim_cycles_per_op": ratio(float64(p.simCycles), float64(p.simActs)),
		"success_ratio":     ratio(float64(p.attempted-p.failed), float64(p.attempted)),
		"cpu_ms_per_op":     ratio(float64(p.cpu)/float64(time.Millisecond), float64(p.ops)),
		"peak_rss_mb":       peakRSSMB(),
	}
}

// digester hashes a prefix's outputs in operation order.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

// add hashes one operation: its index in the workload and its output
// bits.
func (d *digester) add(op int, bits ...[]int) {
	fmt.Fprintf(d.h, "%d:", op)
	for _, v := range bits {
		for _, b := range v {
			d.h.Write([]byte{byte('0' + b)})
		}
		d.h.Write([]byte{'/'})
	}
	d.h.Write([]byte{'\n'})
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// outstanding is how many operations each closed-loop workload keeps in
// flight: one per client, two clients, matching the two CPUs.
const outstanding = 2

// closedLoop runs do(i) for i = from, from+1, ... on `outstanding`
// clients, each sending its next operation only when its previous one
// completed, until stop(i) reports true for the next index. It returns
// the index after the last operation run, once every client is done.
func closedLoop(from int, stop func(i int) bool, do func(i int)) int {
	var (
		mu   sync.Mutex
		next = from
		wg   sync.WaitGroup
	)
	for c := 0; c < outstanding; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if stop(i) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				do(i)
			}
		}()
	}
	wg.Wait()
	return next
}

// indexed hands a stream's items out by index to the clients of a
// closed loop, which ask for them in index order give or take one.
func indexed[T any](next func() (T, error)) func(i int) (T, error) {
	var (
		mu        sync.Mutex
		pending   = make(map[int]T)
		generated int
	)
	return func(i int) (T, error) {
		mu.Lock()
		defer mu.Unlock()
		for generated <= i {
			v, err := next()
			if err != nil {
				return v, err
			}
			pending[generated] = v
			generated++
		}
		v := pending[i]
		delete(pending, i)
		return v, nil
	}
}

// workload runs one phase of a named workload: set up, run the seeded
// warm-up prefix, then measure for window. A non-nil tracer makes the
// phase traced.
type workload func(seed uint64, window time.Duration, tr *tracer) (*phase, error)

var workloads = map[string]workload{
	"gates":   runGates,
	"circuit": runCircuit,
	"serve":   runServe,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"gates", "circuit", "serve"}
