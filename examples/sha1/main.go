// SHA-1 on a weird machine (paper §5.2): hash a message where every
// boolean function and every 32-bit addition of the compression loop is
// computed by weird gates, then verify against a reference SHA-1.
//
//	go run ./examples/sha1
package main

import (
	"crypto/sha1"
	"fmt"
	"log"
	"time"

	"uwm/internal/core"
	"uwm/internal/noise"
	"uwm/internal/sha1wm"
	"uwm/internal/skelly"
)

func main() {
	m, err := core.NewMachine(core.Options{
		Seed:            7,
		Noise:           noise.PaperIsolated(), // §6.1 setup: isolated core
		TrainIterations: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Redundancy: each logical gate op takes the median of s timed
	// executions, n times, and votes. The paper's conservative choice
	// is s=10,k=3,n=5; s=3 single-vote is plenty on an isolated core.
	sk, err := skelly.New(m, skelly.Config{S: 3, K: 1, N: 1, Verify: true})
	if err != nil {
		log.Fatal(err)
	}
	h := sha1wm.New(sk)

	msg := []byte("The quick brown fox jumps over the lazy dog")
	fmt.Printf("hashing %q on weird gates...\n", msg)
	start := time.Now()
	digest, err := h.Sum(msg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("μWM SHA-1:      %x   (%v)\n", digest, time.Since(start).Round(time.Millisecond))

	ref := sha1.Sum(msg)
	fmt.Printf("reference SHA-1: %x\n", ref)
	if digest == ref {
		fmt.Println("digests match: >100,000 weird gate executions, zero uncorrected errors")
	} else {
		fmt.Println("digest MISMATCH: gate errors escaped the redundancy parameters")
	}

	st := h.Stats()
	fmt.Printf("\n%.1f%% of gate results were architecturally visible (paper: 41.9%% at s=10,k=3,n=5)\n",
		st.VisibleFraction()*100)
	for _, g := range []string{"AND", "OR", "NAND", "AND_AND_OR"} {
		c := sk.Counters(g)
		fmt.Printf("%-12s %8d median decisions (%d correct), %8d votes (%d correct)\n",
			g, c.MedianOps, c.MedianCorrect, c.VoteOps, c.VoteCorrect)
	}
}
