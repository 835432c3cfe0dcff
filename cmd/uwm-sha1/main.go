// Command uwm-sha1 hashes its input on the microarchitectural weird
// machine: every boolean operation and every addition of the SHA-1
// compression function is computed by weird gates (branch-predictor
// mistraining + instruction-cache races), not by the simulated CPU's
// ALU. The digest is verified against a reference implementation.
//
// Usage:
//
//	echo -n "abc" | uwm-sha1
//	uwm-sha1 -msg "hello world" -s 3 -k 2 -n 3 -stats
//	uwm-sha1 -msg "abc" -metrics -trace-out sha1.jsonl
package main

import (
	"crypto/sha1"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"uwm/internal/core"
	"uwm/internal/noise"
	"uwm/internal/obs"
	"uwm/internal/sha1wm"
	"uwm/internal/skelly"
)

func main() {
	os.Exit(run())
}

// run returns main's exit code so the observability session closes
// (metrics exposition, trace flush) on every path.
func run() int {
	var (
		msg     = flag.String("msg", "", "message to hash (default: stdin)")
		s       = flag.Int("s", 1, "timing samples per median (paper: 10)")
		k       = flag.Int("k", 1, "votes required (paper: 3)")
		n       = flag.Int("n", 1, "median decisions per vote (paper: 5)")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		noisy   = flag.Bool("noisy", false, "run under paper noise instead of a quiet machine")
		stats   = flag.Bool("stats", false, "print gate counters and visibility statistics")
		verbose = flag.Bool("v", false, "print progress and timing")
		obsCfg  obs.Config
	)
	obsCfg.AddFlags(flag.CommandLine)
	version := obs.AddVersionFlag(flag.CommandLine)
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "uwm-sha1")
		return 0
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "uwm-sha1: "+format+"\n", args...)
		return 1
	}

	data := []byte(*msg)
	if *msg == "" {
		in, err := io.ReadAll(os.Stdin)
		if err != nil {
			return fail("reading stdin: %v", err)
		}
		data = in
	}

	sess, err := obs.Start(obsCfg)
	if err != nil {
		return fail("%v", err)
	}
	defer sess.Close()

	opts := core.Options{Seed: *seed, TrainIterations: 3, Metrics: sess.Registry, Sink: sess.Sink}
	if *noisy {
		opts.Noise = noise.PaperIsolated()
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		return fail("%v", err)
	}
	sk, err := skelly.New(m, skelly.Config{S: *s, K: *k, N: *n, Verify: true})
	if err != nil {
		return fail("%v", err)
	}
	h := sha1wm.New(sk)

	start := time.Now()
	digest, err := h.Sum(data)
	if err != nil {
		return fail("%v", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("%x\n", digest)

	ref := sha1.Sum(data)
	if digest != ref {
		return fail("MISMATCH against reference %x — gate errors escaped redundancy; raise -s/-n", ref)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "verified against reference in %v (%d bytes, s=%d k=%d n=%d)\n",
			elapsed.Round(time.Millisecond), len(data), *s, *k, *n)
	}
	if *stats {
		st := h.Stats()
		fmt.Fprintf(os.Stderr, "gate results: %d circuit-internal, %d architecturally visible (%.1f%%)\n",
			st.GateOps-st.VisibleValues, st.VisibleValues, st.VisibleFraction()*100)
		for _, g := range []string{"AND", "OR", "NAND", "AND_AND_OR"} {
			c := sk.Counters(g)
			fmt.Fprintf(os.Stderr, "%-12s medians %d/%d  votes %d/%d\n",
				g, c.MedianCorrect, c.MedianOps, c.VoteCorrect, c.VoteOps)
		}
	}
	return 0
}
