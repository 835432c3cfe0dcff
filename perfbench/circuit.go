package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"uwm/internal/circopt"
	"uwm/internal/core"
	"uwm/internal/engine"
	"uwm/internal/metrics"
	"uwm/internal/noise"
)

// circuitPrefixJobs is the circuit workload's warm-up prefix (one
// block of the job mix): accuracy, the digest and the replay that
// gives sim_cycles_per_op cover exactly these jobs.
const circuitPrefixJobs = 8

// checkCircuit validates one circuit job result against the netlist:
// shapes, bit values, a golden recomputed with CircuitSpec.Eval, and
// the job's own correct/total tally. It returns the outputs and how
// many output bits match the truth.
func checkCircuit(spec *core.CircuitSpec, inputs [][]int, raw json.RawMessage) ([][]int, int, int, error) {
	var res engine.CircuitResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, 0, 0, fmt.Errorf("decoding circuit result: %w", err)
	}
	if len(res.Outputs) != len(inputs) || len(res.Golden) != len(inputs) {
		return nil, 0, 0, fmt.Errorf("circuit result has %d outputs and %d goldens for %d vectors",
			len(res.Outputs), len(res.Golden), len(inputs))
	}
	correct, total := 0, 0
	for v, in := range inputs {
		want, err := spec.Eval(in)
		if err != nil {
			return nil, 0, 0, err
		}
		got := res.Outputs[v]
		if len(got) != len(want) || len(res.Golden[v]) != len(want) {
			return nil, 0, 0, fmt.Errorf("vector %d: %d outputs, %d golden, want %d", v, len(got), len(res.Golden[v]), len(want))
		}
		for k := range want {
			if got[k]&^1 != 0 {
				return nil, 0, 0, fmt.Errorf("vector %d output %d is %d, not a bit", v, k, got[k])
			}
			if res.Golden[v][k] != want[k] {
				return nil, 0, 0, fmt.Errorf("vector %d: job golden %v differs from CircuitSpec.Eval %v", v, res.Golden[v], want)
			}
			total++
			if got[k] == want[k] {
				correct++
			}
		}
	}
	if res.Correct != correct || res.Total != total {
		return nil, 0, 0, fmt.Errorf("job tallies %d/%d correct, recomputed %d/%d", res.Correct, res.Total, correct, total)
	}
	return res.Outputs, correct, total, nil
}

// snapshotTimes returns a finished job's queue wait and run time.
func snapshotTimes(s engine.Snapshot) (queue, run time.Duration, ok bool) {
	if s.Started == nil || s.Finished == nil {
		return 0, 0, false
	}
	return s.Started.Sub(s.Submitted), s.Finished.Sub(*s.Started), true
}

// engineLayer accumulates the engine-layer observations of a traced
// phase from job snapshots.
type engineLayer struct {
	mu                sync.Mutex
	queueMS, runMS    []float64
	attempts, retries int64
	jobs              int64
}

func (e *engineLayer) observe(s engine.Snapshot) {
	q, r, ok := snapshotTimes(s)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ok {
		e.queueMS = append(e.queueMS, float64(q)/1e6)
		e.runMS = append(e.runMS, float64(r)/1e6)
	}
	if s.Result != nil {
		e.attempts += int64(s.Result.Attempts)
		e.retries += int64(s.Result.Retries)
		e.jobs++
	}
}

// engineCounters are the registry series the engine, flight recorder,
// SLO and event-log layer metrics difference across the timed window.
var engineCounters = []string{
	"uwm_engine_vote_disagreements_total", "uwm_engine_recalibrations_total",
	"uwm_slo_observations_total", "uwm_evlog_records_total", "uwm_trace_dropped_events_total",
	"uwm_circopt_plan_cache_hits_total", "uwm_circopt_plan_cache_misses_total",
	"uwm_circopt_gates_in_total", "uwm_circopt_gates_out_total",
}

func readEngineCounters(regs []*metrics.Registry) map[string]float64 {
	out := readCounters(regs, engineCounters)
	out["kept"] = series(regs, "uwm_flightrec_decisions_total", "decision=kept")
	return out
}

// fill writes the engine-side layer metrics of a traced phase over
// jobs completed jobs.
func (e *engineLayer) fill(l map[string]float64, before, after map[string]float64, jobs int64, setupMS float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	n := float64(max(jobs, 1))
	l["engine.queue_ms.p50"] = quantile(e.queueMS, 0.5)
	l["engine.queue_ms.p90"] = quantile(e.queueMS, 0.9)
	l["engine.run_ms.p50"] = quantile(e.runMS, 0.5)
	l["engine.run_ms.p90"] = quantile(e.runMS, 0.9)
	l["engine.attempts_per_job"] = ratio(float64(e.attempts), float64(e.jobs))
	l["engine.retries_per_job"] = ratio(float64(e.retries), float64(e.jobs))
	l["engine.disagreements"] = d("uwm_engine_vote_disagreements_total")
	l["engine.recalibrations"] = d("uwm_engine_recalibrations_total")
	l["engine.setup_ms"] = setupMS
	l["flightrec.kept_per_job"] = d("kept") / n
	l["slo.observations_per_job"] = d("uwm_slo_observations_total") / n
	l["evlog.records_per_job"] = d("uwm_evlog_records_total") / n
	l["trace.dropped_events_per_job"] = d("uwm_trace_dropped_events_total") / n
	hits, misses := d("uwm_circopt_plan_cache_hits_total"), d("uwm_circopt_plan_cache_misses_total")
	l["circopt.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	l["circopt.gates_out_per_in"] = ratio(d("uwm_circopt_gates_out_total"), d("uwm_circopt_gates_in_total"))
}

// replayCircuit re-runs one circuit job on the reference rig exactly as
// the engine's circuit handler runs its first attempt, and returns the
// outputs, the virtual cycles and the gate activations it took.
func (r *refRig) replayCircuit(spec *core.CircuitSpec, inputs [][]int, optimize bool, jobSeed uint64) ([][]int, int64, float64, error) {
	seed := noise.SubSeed(jobSeed, 0)
	r.m.ReseedNoise(seed)
	c0, a0 := r.m.CPU().TSC(), r.activations()
	var outs [][]int
	if optimize {
		plan, err := circopt.Optimize(spec, circopt.Options{})
		if err != nil {
			return nil, 0, 0, err
		}
		if outs, err = r.sk.EvalPlanBatch(plan, inputs, seed); err != nil {
			return nil, 0, 0, err
		}
	} else {
		outs = make([][]int, len(inputs))
		for v, in := range inputs {
			var err error
			if outs[v], err = r.sk.EvalSpec(spec, in, noise.SubSeed(seed, uint64(v))); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return outs, r.m.CPU().TSC() - c0, r.activations() - a0, nil
}

func equalOutputs(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// runCircuit sends seeded circuit jobs to an in-process engine built
// like uwm-serve's default one, from two closed-loop clients.
func runCircuit(seed uint64, window time.Duration, tr *tracer) (*phase, error) {
	p := &phase{lat: newLatencies(seed)}
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		s, err := newServer(uwmServe, uwmServe.Workers)
		if err != nil {
			return nil, fmt.Errorf("circuit set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(start))
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		srv = s
		runtime.GC() // the discarded builds' garbage, outside any measurement
	}
	defer srv.close()

	job := indexed(newCircuitStream(seed).next)
	var (
		mu         sync.Mutex
		prefixJobs [circuitPrefixJobs]circuitJob
		prefix     [circuitPrefixJobs][][]int
		eng        engineLayer
		inPhase    bool // timed window started
	)
	do := func(i int) {
		req := fmt.Sprintf("c%d", i)
		var (
			snap           engine.Snapshot
			outs           [][]int
			correct, total int
			t0, t1         time.Time
		)
		j, err := job(i)
		if err == nil {
			t0 = time.Now()
			var jb *engine.Job
			jb, err = srv.eng.Submit(engine.JobSpec{Type: engine.JobTypeCircuit, Params: j.params, Seed: j.seed, RequestID: req})
			if err == nil {
				<-jb.Done()
				t1 = time.Now()
				snap = jb.Snapshot()
				if snap.Status != engine.StatusDone || snap.Result == nil {
					err = fmt.Errorf("status %s: %s", snap.Status, snap.Error)
				} else {
					outs, correct, total, err = checkCircuit(j.spec, j.inputs, snap.Result.Value)
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		if err != nil {
			p.fail("job %d (%s): %v", i, j.kind.preset, err)
			return
		}
		if i < circuitPrefixJobs {
			prefixJobs[i], prefix[i] = j, outs
			p.correctBits += int64(correct)
			p.totalBits += int64(total)
			return
		}
		if !inPhase {
			return
		}
		p.lat.add(t1.Sub(t0))
		p.ops++
		gates := len(j.spec.Gates)
		if j.kind.optimize {
			var res engine.CircuitResult
			if json.Unmarshal(snap.Result.Value, &res) == nil {
				gates = res.GatesOut
			}
		}
		p.gateOps += int64(gates * len(j.inputs))
		if tr != nil {
			eng.observe(snap)
			tr.record("client.job", req, t0, t1)
			if q, r, ok := snapshotTimes(snap); ok {
				tr.record("engine.queue", req, snap.Submitted, snap.Submitted.Add(q))
				tr.record("engine.run", req, *snap.Started, snap.Started.Add(r))
			}
		}
	}

	// Warm-up prefix, then the timed window.
	next := closedLoop(0, func(i int) bool { return i >= circuitPrefixJobs }, do)
	regs := []*metrics.Registry{srv.reg}
	ctrBefore := readEngineCounters(regs)
	runtime.GC()
	p.rtBefore = readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	inPhase = true
	deadline := start.Add(window)
	closedLoop(next, func(int) bool { return !time.Now().Before(deadline) }, do)
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.rtAfter = readRuntime()
	ctrAfter := readEngineCounters(regs)

	// Replay the prefix serially on a reference rig: virtual cycles per
	// activation, and the engine's outputs checked against a clone.
	setupStart := time.Now()
	ref, err := newRefRig()
	if err != nil {
		return nil, fmt.Errorf("reference rig: %w", err)
	}
	refSetup := time.Since(setupStart)
	dg := newDigester()
	refRegs := []*metrics.Registry{ref.reg}
	logical0 := series(refRegs, "uwm_skelly_logical_ops_total")
	votes0 := series(refRegs, "uwm_skelly_vote_ops_total")
	votesOK0 := series(refRegs, "uwm_skelly_vote_correct_total")
	for i, j := range prefixJobs {
		dg.add(i, prefix[i]...)
		if prefix[i] == nil {
			continue // failed, and counted as such
		}
		outs, cycles, acts, err := ref.replayCircuit(j.spec, j.inputs, j.kind.optimize, j.seed)
		if err != nil {
			return nil, fmt.Errorf("replaying job %d: %w", i, err)
		}
		p.simCycles += cycles
		p.simActs += int64(acts)
		if !equalOutputs(outs, prefix[i]) {
			p.fail("job %d: engine outputs differ from the serial replay on a clone rig", i)
		}
	}
	p.digest = dg.sum()
	if tr == nil {
		return p, nil
	}

	l := map[string]float64{"core.setup_ms": float64(refSetup) / 1e6}
	l["skelly.gate_ops_per_logical_op"] = ratio(float64(p.simActs), series(refRegs, "uwm_skelly_logical_ops_total")-logical0)
	l["skelly.vote_correct_ratio"] = ratio(series(refRegs, "uwm_skelly_vote_correct_total")-votesOK0, series(refRegs, "uwm_skelly_vote_ops_total")-votes0)
	eng.fill(l, ctrBefore, ctrAfter, p.ops, p.setupMS())

	// Direct circopt passes over the prefix netlists: compile, batch
	// evaluation of the optimized plan, and the serial unoptimized walk.
	var compile, eval, serial time.Duration
	vectors := 0
	for i, j := range prefixJobs {
		es := noise.SubSeed(j.seed, 0)
		t0 := time.Now()
		plan, err := circopt.Optimize(j.spec, circopt.Options{})
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("optimizing job %d: %w", i, err)
		}
		if _, err := ref.sk.EvalPlanBatch(plan, j.inputs, es); err != nil {
			return nil, err
		}
		t2 := time.Now()
		for v, in := range j.inputs {
			if _, err := ref.sk.EvalSpec(j.spec, in, noise.SubSeed(es, uint64(v))); err != nil {
				return nil, err
			}
		}
		t3 := time.Now()
		tr.record("circopt.Optimize", "", t0, t1)
		tr.record("skelly.EvalPlanBatch", "", t1, t2)
		tr.record("skelly.EvalSpec", "", t2, t3)
		compile += t1.Sub(t0)
		eval += t2.Sub(t1)
		serial += t3.Sub(t2)
		vectors += len(j.inputs)
	}
	ms := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e6, float64(n)) }
	l["circopt.compile_ms"] = ms(compile, len(prefixJobs))
	l["circopt.eval_ms_per_vector"] = ms(eval, vectors)
	l["circopt.serial_eval_ms_per_vector"] = ms(serial, vectors)
	tr.link(map[string]string{"engine.queue": "client.job", "engine.run": "client.job"})
	p.layers = l
	return p, nil
}
