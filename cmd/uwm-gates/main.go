// Command uwm-gates is the gate explorer: it builds any weird gate,
// prints its disassembly (showing there is no architectural boolean
// instruction behind the logic), runs its truth table, and optionally
// sweeps its accuracy under a chosen noise profile.
//
// Usage:
//
//	uwm-gates -list
//	uwm-gates -gate TSX_XOR -truth
//	uwm-gates -op and -disasm             # -op is an alias; names are case-insensitive
//	uwm-gates -gate TSX_AND_OR -sweep 20000 -noise paper
//	uwm-gates -registers                  # demo every Table 1 weird register
//	uwm-gates -expr '(a ^ b) & !c'        # compile an expression to a weird circuit
//	uwm-gates -emucheck                   # §2.1 emulation-detection probe
//	uwm-gates -op and -metrics -trace-out /tmp/and.json
//	                                      # truth table + Prometheus metrics +
//	                                      # Perfetto-loadable trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"uwm/internal/bexpr"
	"uwm/internal/core"
	"uwm/internal/cpu"
	"uwm/internal/noise"
	"uwm/internal/obs"
	"uwm/internal/trace"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so the observability session's
// deferred Close (metrics exposition, trace file flush) survives
// error paths — os.Exit would skip it.
func run() int {
	var (
		list      = flag.Bool("list", false, "list available gates")
		gateName  = flag.String("gate", "", "gate to explore (case-insensitive; try -list)")
		opName    = flag.String("op", "", "alias for -gate")
		truth     = flag.Bool("truth", false, "run the gate's full truth table")
		disasm    = flag.Bool("disasm", false, "print the gate program's disassembly")
		sweep     = flag.Int("sweep", 0, "run N random operations and report accuracy")
		noiseName = flag.String("noise", "quiet", "noise profile: quiet, paper, isolated, noisy")
		registers = flag.Bool("registers", false, "demo every Table 1 weird register")
		expr      = flag.String("expr", "", "compile a boolean expression (&, |, ^, !, parens) to a weird circuit and run its truth table")
		emucheck  = flag.Bool("emucheck", false, "run the §2.1 emulation-detection probe (against both a real and an emulated machine)")
		traceRun  = flag.Bool("trace", false, "with -gate: record one activation and print the two-plane event trace")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		obsCfg    obs.Config
	)
	obsCfg.AddFlags(flag.CommandLine)
	version := obs.AddVersionFlag(flag.CommandLine)
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "uwm-gates")
		return 0
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "uwm-gates: "+format+"\n", args...)
		return 1
	}

	if *list {
		cat := core.Catalog()
		slices.SortFunc(cat, func(a, b core.GateSpec) int { return strings.Compare(a.Name, b.Name) })
		for _, s := range cat {
			fmt.Printf("%-12s %d input(s)\n", s.Name, s.Arity)
		}
		return 0
	}

	cfg := noise.Quiet()
	switch *noiseName {
	case "quiet":
	case "paper":
		cfg = noise.Paper()
	case "isolated":
		cfg = noise.PaperIsolated()
	case "noisy":
		cfg = noise.Noisy()
	default:
		fmt.Fprintf(os.Stderr, "uwm-gates: unknown noise profile %q\n", *noiseName)
		return 2
	}

	sess, err := obs.Start(obsCfg)
	if err != nil {
		return fail("%v", err)
	}
	defer sess.Close()

	m, err := core.NewMachine(core.Options{
		Seed:            *seed,
		Noise:           cfg,
		TrainIterations: 4,
		Metrics:         sess.Registry,
		Sink:            sess.Sink,
	})
	if err != nil {
		return fail("%v", err)
	}

	if *registers {
		if err := demoRegisters(m); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	if *emucheck {
		v, err := core.DetectEmulation(m, 32)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Println("this machine:   ", v)
		emuCfg := cpu.DefaultConfig()
		emuCfg.TSXWindow = 0 // an ISA-faithful emulator: no transient execution
		emu, err := core.NewMachine(core.Options{Seed: *seed, CPU: &emuCfg})
		if err != nil {
			return fail("%v", err)
		}
		v2, err := core.DetectEmulation(emu, 32)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Println("emulated model: ", v2)
		return 0
	}

	if *expr != "" {
		circ, vars, err := bexpr.Compile(m, *expr)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Printf("compiled %q over %v: %d chained transactions\n", *expr, vars, circ.Transactions())
		e, _ := bexpr.Parse(*expr)
		for v := 0; v < 1<<len(vars); v++ {
			in := make([]int, len(vars))
			env := map[string]int{}
			for i, name := range vars {
				in[i] = v >> i & 1
				env[name] = in[i]
			}
			out, err := circ.Run(in...)
			if err != nil {
				return fail("%v", err)
			}
			fmt.Printf("  [%s] = %d  (expect %d)\n", bexpr.FormatAssignment(vars, in), out[0], e.Eval(env))
		}
		return 0
	}

	requested := *gateName
	if requested == "" {
		requested = *opName
	}
	name := strings.ToUpper(requested)
	spec, ok := core.LookupGate(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "uwm-gates: unknown gate %q (try -list)\n", requested)
		// A usage error has nothing to report: don't follow it with a
		// metrics dump of machine-calibration noise.
		sess.SetOutput(io.Discard)
		return 2
	}
	g, err := spec.New(m)
	if err != nil {
		return fail("%v", err)
	}

	// An observability run with no explicit action still needs gate
	// activity to observe: default to the truth table.
	runTruth := *truth
	if !*disasm && !runTruth && *sweep == 0 && !*traceRun {
		if obsCfg.Enabled() {
			runTruth = true
		} else {
			fmt.Fprintln(os.Stderr, "uwm-gates: nothing to do; pass -truth, -disasm or -sweep")
			return 2
		}
	}

	if *disasm {
		fmt.Print(g.Program().Disassemble())
	}
	out, want := make([]int, g.Outputs()), make([]int, g.Outputs())
	deltas := make([]int64, g.Outputs())
	if *traceRun {
		rec := trace.NewRecorder(0)
		prev := m.CPU().Sink()
		if prev != nil {
			// Keep streaming to -trace-out while the recorder captures
			// the activation for the printed two-plane view.
			m.CPU().SetSink(trace.Tee(prev, rec))
		} else {
			m.CPU().SetSink(rec)
		}
		in := make([]int, g.Arity())
		for j := range in {
			in[j] = 1
		}
		err := g.Activate(in, out, deltas)
		m.CPU().SetSink(prev)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Printf("%s%v = %v\n", name, in, out)
		arch, micro := 0, 0
		for _, e := range rec.Events() {
			plane := "μarch"
			if e.Kind.Architectural() {
				plane = "arch "
				arch++
			} else {
				micro++
			}
			fmt.Printf("[%s] %s\n", plane, e)
		}
		fmt.Printf("\n%d architectural events (the debugger's view), %d microarchitectural (the computation)\n", arch, micro)
	}
	if runTruth {
		fmt.Printf("threshold: %d cycles\n", m.Threshold())
		for _, in := range core.Combinations(g.Arity()) {
			if err := g.Activate(in, out, deltas); err != nil {
				return fail("%v", err)
			}
			g.Truth(in, want)
			fmt.Printf("%s%v = %v  (expect %v)\n", name, in, out, want)
		}
	}
	if *sweep > 0 {
		rep, err := core.MeasureGate(g, *sweep, noise.NewRNG(*seed+99))
		if err != nil {
			return fail("%v", err)
		}
		fmt.Printf("%s: %d/%d correct (%.5f) under %s noise\n",
			name, rep.Correct, rep.Operations, rep.Accuracy(), *noiseName)
	}
	return 0
}

// demoRegisters writes and reads back every Table 1 weird register.
func demoRegisters(m *core.Machine) error {
	for _, r := range core.Registers() {
		wr, err := r.New(m)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		okAll := true
		for _, bit := range []int{0, 1, 1, 0} {
			if err := wr.Write(bit); err != nil {
				return fmt.Errorf("%s write: %w", r.Name, err)
			}
			got, raw, err := wr.ReadRaw()
			if err != nil {
				return fmt.Errorf("%s read: %w", r.Name, err)
			}
			if got != bit {
				okAll = false
			}
			fmt.Printf("%-26s wrote %d read %d (latency %d cycles)\n", r.Name, bit, got, raw)
		}
		if okAll {
			fmt.Printf("%-26s OK\n\n", r.Name)
		} else {
			fmt.Printf("%-26s MISREAD\n\n", r.Name)
		}
	}
	return nil
}
