package circopt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"uwm/internal/core"
	"uwm/internal/metrics"
	"uwm/internal/noise"
)

// GateLib is the weird-gate execution surface a plan evaluator drives:
// one logical netlist operation at a time, plus access to the machine
// so the evaluator can re-pin its noise stream per activation and open
// profiling spans. skelly.Skelly implements it.
type GateLib interface {
	// GateOp executes one netlist gate operation on the weird machine
	// and returns the (possibly noisy) result bit. CircAssign must be
	// pure wiring: no gate activation, input returned unchanged.
	GateOp(op core.CircuitOp, a, b int) (int, error)
	// Machine returns the library's underlying machine.
	Machine() *core.Machine
}

// evalGate runs one plan gate with the reseed discipline: the machine's
// noise stream is re-pinned to the gate's content-derived stream id, so
// the result is a pure function of (machine construction, evalSeed,
// gate identity) — independent of which worker runs it and of what ran
// before.
func evalGate(lib GateLib, g *PlanGate, vals []int, evalSeed uint64) error {
	lib.Machine().ReseedNoise(noise.SubSeed(evalSeed, g.Stream))
	b := 0
	if g.B >= 0 {
		b = vals[g.B]
	}
	v, err := lib.GateOp(g.Op, vals[g.A], b)
	if err != nil {
		return err
	}
	vals[g.Out] = v
	return nil
}

// EvalPlan evaluates a plan serially on one gate library. Because of
// the per-gate reseed discipline this returns exactly what a pooled
// evaluation of the same plan returns.
func EvalPlan(lib GateLib, plan *Plan, inputs []int, evalSeed uint64) ([]int, error) {
	vals, err := plan.NewValues(inputs)
	if err != nil {
		return nil, err
	}
	sp := lib.Machine().BeginSpan("circopt:eval")
	defer lib.Machine().EndSpan(sp)
	for i := range plan.Gates {
		if err := evalGate(lib, &plan.Gates[i], vals, evalSeed); err != nil {
			return nil, err
		}
	}
	return gather(plan, vals), nil
}

// EvalSpec evaluates an *unoptimized* netlist serially, gate by gate
// in source order: EvalPlan over the netlist's Unoptimized plan (built
// without the leveling and fingerprint the walk does not read). It is
// the baseline the CircuitThroughput experiment compares plans against,
// and it is byte-aligned with optimized plans of the same netlist:
// duplicate gates draw identical noise, assigns cost nothing in either
// form, and dead gates cannot influence live ones because every
// activation is independently reseeded.
func EvalSpec(lib GateLib, spec *core.CircuitSpec, inputs []int, evalSeed uint64) ([]int, error) {
	plan, err := sourcePlan(spec)
	if err != nil {
		return nil, err
	}
	return EvalPlan(lib, plan, inputs, evalSeed)
}

func gather(plan *Plan, vals []int) []int {
	outs := make([]int, len(plan.Outputs))
	for i, slot := range plan.Outputs {
		outs[i] = vals[slot]
	}
	return outs
}

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Workers is the pool size (default 1).
	Workers int
	// Build constructs worker i's gate library. It MUST build
	// byte-identical libraries for every worker — same machine seed,
	// same fixed construction order — exactly like the engine's rig
	// builder; that is what makes a P-worker run byte-identical to a
	// serial one (the TestSerialPooledDeterminism discipline).
	Build func(worker int) (GateLib, error)
	// Metrics, when non-nil, receives the pool's eval/gate-op
	// counters.
	Metrics *metrics.Registry
}

// Pool evaluates plans across a small pool of identically constructed
// gate libraries: Eval fans the gates of each topological level over
// the workers (level parallelism); EvalBatch fans whole input vectors
// over the workers (batch parallelism). Both return byte-identical
// results for every pool size, including 1, and identical to the
// serial EvalPlan — each gate activation is independently reseeded
// from (evalSeed, gate stream), so neither placement nor order can
// shift its noise draws.
type Pool struct {
	libs []GateLib

	evals   atomic.Uint64
	gateOps atomic.Uint64
}

// NewPool builds the worker libraries in index order.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("circopt: pool needs a Build callback")
	}
	p := &Pool{libs: make([]GateLib, cfg.Workers)}
	for i := range p.libs {
		lib, err := cfg.Build(i)
		if err != nil {
			return nil, fmt.Errorf("circopt: building pool worker %d: %w", i, err)
		}
		p.libs[i] = lib
	}
	if cfg.Metrics != nil {
		cfg.Metrics.CounterFunc(MetricEvals, "plan evaluations by the pool", p.evals.Load)
		cfg.Metrics.CounterFunc(MetricGateOps, "gate activations scheduled by the pool", p.gateOps.Load)
	}
	return p, nil
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.libs) }

// Lib returns worker i's gate library — the serial baseline of a
// comparison typically borrows worker 0.
func (p *Pool) Lib(i int) GateLib { return p.libs[i] }

// Eval evaluates one input vector with level parallelism: all gates of
// a topological level are data-independent, so the level is split
// across the workers and a barrier separates levels. Gate outputs land
// in disjoint slots of the shared value array, and the WaitGroup
// barrier orders every write before the reads of the next level.
func (p *Pool) Eval(plan *Plan, inputs []int, evalSeed uint64) ([]int, error) {
	vals, err := plan.NewValues(inputs)
	if err != nil {
		return nil, err
	}
	p.evals.Add(1)
	p.gateOps.Add(uint64(len(plan.Gates)))
	spans := make([]uint64, len(p.libs))
	for i, lib := range p.libs {
		spans[i] = lib.Machine().BeginSpan("circopt:eval-level")
	}
	defer func() {
		for i, lib := range p.libs {
			lib.Machine().EndSpan(spans[i])
		}
	}()
	// minChunk keeps narrow levels serial: below this many gates per
	// worker the per-level goroutine spawn and barrier cost more than
	// the parallelism recovers (a ripple-carry adder's levels are only
	// a handful of gates wide). The split is a pure scheduling choice —
	// any worker computes the same bit for any gate, so the chunking
	// cannot change results, only wall clock.
	const minChunk = 8
	errs := make([]error, len(p.libs))
	for _, level := range plan.Levels {
		workers := (len(level) + minChunk - 1) / minChunk
		if workers > len(p.libs) {
			workers = len(p.libs)
		}
		if workers < 1 {
			workers = 1
		}
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			lo := w * len(level) / workers
			hi := (w + 1) * len(level) / workers
			wg.Add(1)
			go func(w int, chunk []int) {
				defer wg.Done()
				for _, gi := range chunk {
					if err := evalGate(p.libs[w], &plan.Gates[gi], vals, evalSeed); err != nil {
						errs[w] = err
						return
					}
				}
			}(w, level[lo:hi])
		}
		// Worker 0's chunk runs on the calling goroutine: one fewer
		// spawn per level, and levels narrow enough for one worker
		// never touch the scheduler at all.
		for _, gi := range level[:len(level)/workers] {
			if err := evalGate(p.libs[0], &plan.Gates[gi], vals, evalSeed); err != nil {
				errs[0] = err
				break
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return gather(plan, vals), nil
}

// EvalBatch evaluates a batch of input vectors, fanning whole vectors
// over the workers. Vector v always derives its evaluation seed as
// SubSeed(evalSeed, v) regardless of which worker it lands on, so the
// output batch is byte-identical for every pool size and matches a
// serial loop of EvalPlan calls with the same per-vector seeds.
func (p *Pool) EvalBatch(plan *Plan, batch [][]int, evalSeed uint64) ([][]int, error) {
	outs := make([][]int, len(batch))
	errs := make([]error, len(p.libs))
	var wg sync.WaitGroup
	for w := range p.libs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := w; v < len(batch); v += len(p.libs) {
				out, err := EvalPlan(p.libs[w], plan, batch[v], noise.SubSeed(evalSeed, uint64(v)))
				if err != nil {
					errs[w] = err
					return
				}
				outs[v] = out
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	p.evals.Add(uint64(len(batch)))
	p.gateOps.Add(uint64(len(batch) * len(plan.Gates)))
	return outs, nil
}
