package circopt_test

import (
	"fmt"
	"testing"

	"uwm/internal/circopt"
	"uwm/internal/core"
	"uwm/internal/health"
	"uwm/internal/noise"
	"uwm/internal/skelly"
	"uwm/internal/trace"
)

// buildLib constructs one calibrated gate library exactly the way a
// pool worker does: fixed seed, fixed construction order, replayable
// noise — the engine's rig discipline.
func buildLib(seed uint64) (circopt.GateLib, error) {
	m, err := core.NewMachine(core.Options{
		Seed:            seed,
		Noise:           noise.Replayable(),
		TrainIterations: 2,
	})
	if err != nil {
		return nil, err
	}
	return skelly.New(m, skelly.FastConfig())
}

// TestSerialPlanPoolByteIdentical is the circopt equivalence property:
// random seeded netlists evaluated (a) unoptimized and serial, (b) as
// an optimized plan on one machine, (c) level-parallel across pools of
// 2 and 3, and (d) batch-parallel — all byte-identical, under a noise
// model where individual gates do err.
func TestSerialPlanPoolByteIdentical(t *testing.T) {
	rng := noise.NewRNG(2021)
	serial, err := buildLib(2021)
	if err != nil {
		t.Fatal(err)
	}
	pools := make([]*circopt.Pool, 0, 2)
	for _, workers := range []int{2, 3} {
		pool, err := circopt.NewPool(circopt.PoolConfig{
			Workers: workers,
			Build:   func(int) (circopt.GateLib, error) { return buildLib(2021) },
		})
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, pool)
	}

	for trial := 0; trial < 6; trial++ {
		spec := randomSpec(rng, 3+rng.Intn(4), 10+rng.Intn(50))
		plan, err := circopt.Optimize(spec, circopt.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		batch := make([][]int, 4)
		for v := range batch {
			batch[v] = randomInputs(rng, spec.NumInputs)
		}
		evalSeed := rng.Uint64()

		// Reference: unoptimized serial walk, per-vector sub-seeds.
		want := make([][]int, len(batch))
		for v, in := range batch {
			out, err := circopt.EvalSpec(serial, spec, in, noise.SubSeed(evalSeed, uint64(v)))
			if err != nil {
				t.Fatalf("trial %d: EvalSpec: %v", trial, err)
			}
			want[v] = out
		}

		// Optimized serial plan on the same machine.
		for v, in := range batch {
			out, err := circopt.EvalPlan(serial, plan, in, noise.SubSeed(evalSeed, uint64(v)))
			if err != nil {
				t.Fatalf("trial %d: EvalPlan: %v", trial, err)
			}
			if !equalInts(out, want[v]) {
				t.Fatalf("trial %d vector %d: serial plan %v != unoptimized %v (stats %+v)",
					trial, v, out, want[v], plan.Stats)
			}
		}

		for _, pool := range pools {
			// Level-parallel single evaluations.
			for v, in := range batch {
				out, err := pool.Eval(plan, in, noise.SubSeed(evalSeed, uint64(v)))
				if err != nil {
					t.Fatalf("trial %d: pool-%d Eval: %v", trial, pool.Workers(), err)
				}
				if !equalInts(out, want[v]) {
					t.Fatalf("trial %d vector %d: pool-%d %v != serial %v",
						trial, v, pool.Workers(), out, want[v])
				}
			}
			// Batch-parallel evaluation.
			outs, err := pool.EvalBatch(plan, batch, evalSeed)
			if err != nil {
				t.Fatalf("trial %d: pool-%d EvalBatch: %v", trial, pool.Workers(), err)
			}
			for v := range batch {
				if !equalInts(outs[v], want[v]) {
					t.Fatalf("trial %d vector %d: pool-%d batch %v != serial %v",
						trial, v, pool.Workers(), outs[v], want[v])
				}
			}
		}
	}
}

// TestGateErrorsStayAligned raises the noise until single gates err and
// re-checks alignment: the byte-equality guarantee must hold *through*
// gate errors, not only when every gate happens to be correct. The
// netlist is adder16 (CSE-heavy), the check is that unoptimized serial
// and pooled plan evaluation still agree on every output bit while at
// least one output in the batch disagrees with the architectural
// golden — proof the noise actually bit.
func TestGateErrorsStayAligned(t *testing.T) {
	spec, err := circopt.Preset("adder16")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := circopt.Optimize(spec, circopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hostile := noise.Noisy()
	hostile.WindowJitterStdDev = 0 // keep only the history-free processes
	hostile.MemJitterStdDev = 0
	build := func(int) (circopt.GateLib, error) {
		m, err := core.NewMachine(core.Options{Seed: 99, Noise: hostile, TrainIterations: 2})
		if err != nil {
			return nil, err
		}
		return skelly.New(m, skelly.FastConfig())
	}
	serial, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := circopt.NewPool(circopt.PoolConfig{Workers: 4, Build: build})
	if err != nil {
		t.Fatal(err)
	}

	rng := noise.NewRNG(5)
	erred := false
	for v := 0; v < 6; v++ {
		in := randomInputs(rng, spec.NumInputs)
		seed := noise.SubSeed(77, uint64(v))
		want, err := circopt.EvalSpec(serial, spec, in, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.Eval(plan, in, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got, want) {
			t.Fatalf("vector %d: pooled %v != serial %v under hostile noise", v, got, want)
		}
		golden, err := spec.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(want, golden) {
			erred = true
		}
	}
	if !erred {
		t.Log("note: no gate error surfaced in 6 vectors; alignment still verified")
	}
}

// TestHealthVerdictReplay closes the loop with the health plane: a
// serial run and a pooled run must leave their monitors with the same
// verdict, and replaying each machine's recorded trace offline must
// reproduce the live verdict — the flight-recorder guarantee extended
// over plan evaluation.
func TestHealthVerdictReplay(t *testing.T) {
	spec, err := circopt.Preset("adder8")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := circopt.Optimize(spec, circopt.Options{})
	if err != nil {
		t.Fatal(err)
	}

	type observed struct {
		lib circopt.GateLib
		mon *health.Monitor
		rec *trace.Recorder
	}
	var all []*observed
	build := func(int) (circopt.GateLib, error) {
		mon := health.NewMonitor()
		rec := trace.NewRecorder(1 << 16)
		m, err := core.NewMachine(core.Options{
			Seed:            2021,
			Noise:           noise.Replayable(),
			TrainIterations: 2,
			Sink:            rec,
			HealthTap:       mon,
		})
		if err != nil {
			return nil, err
		}
		lib, err := skelly.New(m, skelly.FastConfig())
		if err != nil {
			return nil, err
		}
		all = append(all, &observed{lib: lib, mon: mon, rec: rec})
		return lib, nil
	}

	serialLib, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := circopt.NewPool(circopt.PoolConfig{Workers: 2, Build: build})
	if err != nil {
		t.Fatal(err)
	}

	rng := noise.NewRNG(3)
	batch := make([][]int, 4)
	for v := range batch {
		batch[v] = randomInputs(rng, spec.NumInputs)
	}
	serialOut := make([][]int, len(batch))
	for v, in := range batch {
		if serialOut[v], err = circopt.EvalPlan(serialLib, plan, in, noise.SubSeed(9, uint64(v))); err != nil {
			t.Fatal(err)
		}
	}
	pooledOut, err := pool.EvalBatch(plan, batch, 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := range batch {
		if !equalInts(pooledOut[v], serialOut[v]) {
			t.Fatalf("vector %d: pooled %v != serial %v", v, pooledOut[v], serialOut[v])
		}
	}

	// Per machine: the replayed verdict must equal the live verdict in
	// every field — the live == offline guarantee. Across machines the
	// margin statistics legitimately differ (the serial machine ran all
	// vectors, each pool worker its share), but they must agree on the
	// drift state.
	states := make(map[string]bool)
	for i, o := range all {
		live := o.mon.Verdict()
		replayed := health.Replay(o.rec.Events()).Verdict()
		if live != replayed {
			t.Errorf("machine %d: live verdict %+v != replayed %+v", i, live, replayed)
		}
		states[fmt.Sprintf("drifting=%v threshold=%d", live.Drifting, live.Threshold)] = true
	}
	if len(states) != 1 {
		t.Errorf("serial and pooled monitors disagree on the drift state: %v", states)
	}
}
