package analyzer_test

import (
	"fmt"

	"uwm/internal/analyzer"
	"uwm/internal/core"
	"uwm/internal/noise"
)

// ExampleAttach is the quickstart: build a microarchitectural weird
// machine, construct one weird AND gate of each family, and watch logic
// emerge from timing while a defender that sees every committed
// instruction, register write and memory write finds no AND.
func ExampleAttach() {
	// A Machine owns the simulated CPU (caches, branch predictors,
	// transactional memory, a cycle-accurate clock) and calibrates the
	// timing threshold that separates cache hits from misses. Quiet
	// noise keeps every gate output exact; noise.Paper() adds the
	// calibrated system noise under which single activations can err.
	m, err := core.NewMachine(core.Options{Seed: 42, Noise: noise.Quiet(), TrainIterations: 8})
	if err != nil {
		panic(err)
	}
	fmt.Printf("hit/miss threshold = %d cycles\n", m.Threshold())

	// Attach the defender before doing anything weird.
	obs := analyzer.Attach(m, 0)

	// A branch-predictor/instruction-cache AND gate (paper Figure 1).
	// Input a is the I-cache state of the gate body, input b the
	// trained direction of the gate branch; the output is whether a
	// cache line got filled during erroneous speculative execution.
	bpAnd, err := core.NewBPAnd(m)
	if err != nil {
		panic(err)
	}
	fmt.Println("bp/icache AND gate:")
	for _, in := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		out, timing, err := bpAnd.RunTimed(in[0], in[1])
		if err != nil {
			panic(err)
		}
		fmt.Printf("  AND(%d,%d) = %d   (read latency %d cycles)\n", in[0], in[1], out, timing)
	}

	// A TSX AND gate (paper §4): a dependent load chain inside the
	// post-fault transient window of an aborting transaction.
	tsxAnd, err := core.NewTSXAnd(m)
	if err != nil {
		panic(err)
	}
	fmt.Println("TSX AND gate:")
	for _, in := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		out, err := tsxAnd.Run(in[0], in[1])
		if err != nil {
			panic(err)
		}
		fmt.Printf("  AND(%d,%d) = %d\n", in[0], in[1], out[0])
	}

	// The machine computed AND eight times, yet the complete
	// architectural evidence contains no AND instruction.
	fmt.Println(obs.Report())
	fmt.Printf("architectural 'and' instruction observed: %v\n", obs.ExecutedOpcode("and"))
	// Output:
	// hit/miss threshold = 129 cycles
	// bp/icache AND gate:
	//   AND(0,0) = 0   (read latency 224 cycles)
	//   AND(0,1) = 0   (read latency 224 cycles)
	//   AND(1,0) = 0   (read latency 224 cycles)
	//   AND(1,1) = 1   (read latency 35 cycles)
	// TSX AND gate:
	//   AND(0,0) = 0
	//   AND(0,1) = 0
	//   AND(1,0) = 0
	//   AND(1,1) = 1
	// architectural evidence: 878 committed insts, 71 reg writes, 18 mem writes, tx begin/end/abort 10/5/5; 272 μarch events invisible
	// architectural 'and' instruction observed: false
}
