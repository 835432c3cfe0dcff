package main

import (
	"fmt"
	"runtime"
	"time"

	"uwm/internal/core"
	"uwm/internal/engine"
	"uwm/internal/metrics"
	"uwm/internal/trace"
)

// gatesPrefixOps is the gates workload's warm-up prefix: accuracy,
// sim_cycles_per_op and the digest cover exactly these activations.
const gatesPrefixOps = 20000

// gateFloor is the lowest prefix accuracy any one gate may show before
// the run counts as incorrect: well under the paper's worst gate
// (TSX_XOR, 0.926 in Table 8), well over a coin flip.
const gateFloor = 0.85

// gateRig is a freshly calibrated machine with the engine's eight
// gates, each behind a uniform runner.
type gateRig struct {
	m   *core.Machine
	run [8]func(in []int) ([]int, error)
}

// buildGateRig builds the machine the way the engine's workers do
// (noise.Replayable, the engine's training count and root seed) and
// the gates in the engine's order.
func buildGateRig(reg *metrics.Registry, sink trace.Sink) (*gateRig, error) {
	m, err := core.NewMachine(core.Options{
		Seed:            uwmServe.Seed,
		Noise:           engine.DefaultNoise(),
		TrainIterations: uwmServe.Train,
		Metrics:         reg,
		Sink:            sink,
	})
	if err != nil {
		return nil, err
	}
	rig := &gateRig{m: m}
	for i, build := range []func(*core.Machine) (*core.BPGate, error){
		core.NewBPAnd, core.NewBPOr, core.NewBPNand, core.NewBPAndAndOr,
	} {
		g, err := build(m)
		if err != nil {
			return nil, err
		}
		var out [1]int
		rig.run[i] = func(in []int) ([]int, error) {
			v, err := g.Run(in...)
			out[0] = v
			return out[:], err
		}
	}
	for i, build := range []func(*core.Machine) (*core.TSXGate, error){
		core.NewTSXAnd, core.NewTSXOr, core.NewTSXXor, core.NewTSXAssign,
	} {
		g, err := build(m)
		if err != nil {
			return nil, err
		}
		rig.run[4+i] = func(in []int) ([]int, error) { return g.Run(in...) }
	}
	return rig, nil
}

// phaseSink totals the virtual cycles spent inside each gate phase
// span (train, ic-write, ...), from the machine's own span events.
type phaseSink struct {
	open   map[uint64]int64
	cycles map[string]int64
}

func newPhaseSink() *phaseSink {
	return &phaseSink{open: make(map[uint64]int64), cycles: make(map[string]int64)}
}

func (s *phaseSink) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindSpanBegin:
		s.open[e.Value] = e.Cycle
	case trace.KindSpanEnd:
		if c, ok := s.open[e.Value]; ok {
			s.cycles[e.Text] += e.Cycle - c
			delete(s.open, e.Value)
		}
	}
}

// gatePhases maps the machine's phase span names to layer metric names.
var gatePhases = map[string]string{
	core.SpanTrain:      "train",
	core.SpanICWrite:    "ic_write",
	core.SpanWriteInput: "write_input",
	core.SpanPrep:       "prep",
	core.SpanFire:       "fire",
	core.SpanRead:       "read",
}

// machineCounters are the registry series the cpu, cache and branch
// layer metrics difference across the timed window.
var machineCounters = []string{
	"uwm_cpu_committed_total", "uwm_cpu_mispredicts_total", "uwm_cpu_tx_aborts_total",
	"uwm_cpu_spec_window_cycles_sum", "uwm_cpu_spec_window_cycles_count",
	"uwm_cache_hits_total", "uwm_cache_misses_total", "uwm_cache_flushes_total",
	"uwm_branch_predictions_total", "uwm_btb_lookups_total", "uwm_btb_hits_total",
}

// runGates drives one machine's gates directly from one goroutine.
func runGates(seed uint64, window time.Duration, tr *tracer) (*phase, error) {
	p := &phase{lat: newLatencies(seed)}
	traced := tr != nil
	var (
		rig  *gateRig
		reg  *metrics.Registry
		sink *phaseSink
	)
	for i := 0; i < setupRepeats; i++ {
		reg, sink = nil, nil
		var s trace.Sink
		if traced {
			reg, sink = metrics.NewRegistry(), newPhaseSink()
			s = sink
		}
		start := time.Now()
		r, err := buildGateRig(reg, s)
		if err != nil {
			return nil, fmt.Errorf("gates set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(start))
		rig = r
		runtime.GC() // the discarded builds' garbage, outside any measurement
	}

	stream := newGateStream(seed)
	check := func(g int, in, out []int, err error) (int, bool) {
		p.attempted++
		want, terr := gateTruth(gateNames[g], in)
		switch {
		case terr != nil:
			p.fail("%s: %v", gateNames[g], terr)
		case err != nil:
			p.fail("%s%v: %v", gateNames[g], in, err)
		case len(out) != 1 || out[0]&^1 != 0:
			p.fail("%s%v: output %v is not one bit", gateNames[g], in, out)
		default:
			return want, true
		}
		return 0, false
	}

	// Warm-up prefix: fixed length, so its accuracy, cycles and digest
	// are functions of the seed alone.
	dg := newDigester()
	var prefixOK, prefixN [8]int
	c0 := rig.m.CPU().TSC()
	for i := 0; i < gatesPrefixOps; i++ {
		g, in := stream.next()
		out, err := rig.run[g](in)
		want, ok := check(g, in, out, err)
		if !ok {
			continue
		}
		dg.add(i, in, out)
		p.totalBits++
		prefixN[g]++
		if out[0] == want {
			p.correctBits++
			prefixOK[g]++
		}
	}
	p.simCycles, p.simActs = rig.m.CPU().TSC()-c0, gatesPrefixOps
	p.digest = dg.sum()
	for g, n := range prefixN {
		if acc := ratio(float64(prefixOK[g]), float64(n)); n > 0 && acc < gateFloor {
			p.fail("%s prefix accuracy %.4f below floor %.2f", gateNames[g], acc, gateFloor)
		}
	}

	// Timed window.
	var (
		famTime    [2]time.Duration
		famOps     [2]int64
		gOps, gOK  [8]int64
		gCycles    [8]int64
		phaseStart map[string]int64
		ctrStart   map[string]float64
	)
	regs := []*metrics.Registry{reg}
	if traced {
		phaseStart = make(map[string]int64)
		for k, v := range sink.cycles {
			phaseStart[k] = v
		}
		ctrStart = readCounters(regs, machineCounters)
	}
	runtime.GC()
	p.rtBefore = readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	for {
		g, in := stream.next()
		var tsc0 int64
		if traced {
			tsc0 = rig.m.CPU().TSC()
		}
		t0 := time.Now()
		out, err := rig.run[g](in)
		t1 := time.Now()
		d := t1.Sub(t0)
		p.lat.add(d)
		p.ops++
		p.gateOps++
		fam := g / 4 // 0: branch-predictor family, 1: TSX family
		famTime[fam] += d
		famOps[fam]++
		if want, ok := check(g, in, out, err); ok && traced {
			gOps[g]++
			gCycles[g] += rig.m.CPU().TSC() - tsc0
			if out[0] == want {
				gOK[g]++
			}
		}
		if traced {
			tr.record("core."+gateNames[g]+".Run", "", t0, t1)
		}
		if t1.Sub(start) >= window {
			break
		}
	}
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.rtAfter = readRuntime()

	// Host-time layer metrics are kept for every phase: a traced run
	// takes them from its untraced phase, where the machine's event
	// sink does not inflate them.
	p.layers = map[string]float64{
		"core.bp.host_us_per_op":  ratio(float64(famTime[0])/1e3, float64(famOps[0])),
		"core.tsx.host_us_per_op": ratio(float64(famTime[1])/1e3, float64(famOps[1])),
		"core.host_ns_per_op":     ratio(float64(famTime[0]+famTime[1]), float64(p.ops)),
	}
	if !traced {
		return p, nil
	}

	n := float64(p.ops)
	ctr := readCounters(regs, machineCounters)
	delta := func(name string) float64 { return ctr[name] - ctrStart[name] }
	l := p.layers
	l["cpu.insts_per_op"] = delta("uwm_cpu_committed_total") / n
	l["cpu.mispredicts_per_op"] = delta("uwm_cpu_mispredicts_total") / n
	l["cpu.spec_window_cycles_mean"] = ratio(delta("uwm_cpu_spec_window_cycles_sum"), delta("uwm_cpu_spec_window_cycles_count"))
	l["cpu.tx_aborts_per_op"] = delta("uwm_cpu_tx_aborts_total") / n
	accesses := delta("uwm_cache_hits_total") + delta("uwm_cache_misses_total")
	l["cache.accesses_per_op"] = accesses / n
	l["cache.miss_ratio"] = ratio(delta("uwm_cache_misses_total"), accesses)
	l["cache.flushes_per_op"] = delta("uwm_cache_flushes_total") / n
	l["branch.predictions_per_op"] = delta("uwm_branch_predictions_total") / n
	l["branch.btb_hit_ratio"] = ratio(delta("uwm_btb_hits_total"), delta("uwm_btb_lookups_total"))
	for g, name := range gateNames {
		l["core."+name+".accuracy"] = ratio(float64(gOK[g]), float64(gOps[g]))
		l["core."+name+".sim_cycles_per_op"] = ratio(float64(gCycles[g]), float64(gOps[g]))
	}
	for span, name := range gatePhases {
		l["core.phase."+name+".sim_cycles_per_op"] = float64(sink.cycles[span]-phaseStart[span]) / n
	}
	return p, nil
}
