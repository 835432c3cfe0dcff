package circopt_test

import (
	"testing"

	"uwm/internal/circopt"
	"uwm/internal/core"
	"uwm/internal/noise"
)

// randomSpec generates a seeded netlist with deliberate duplicate
// gates (CSE fodder) and a random output subset (dead-wire fodder).
func randomSpec(rng *noise.RNG, numInputs, numGates int) *core.CircuitSpec {
	s := core.NewCircuitSpec(numInputs)
	for len(s.Gates) < numGates {
		defined := core.WireID(s.NumWires())
		if len(s.Gates) > 0 && rng.Intn(4) == 0 {
			// Exact duplicate of an earlier gate.
			g := s.Gates[rng.Intn(len(s.Gates))]
			switch g.Op {
			case core.CircAssign:
				s.Assign(g.A)
			case core.CircAnd:
				s.And(g.A, g.B)
			case core.CircOr:
				s.Or(g.A, g.B)
			case core.CircNot:
				s.Not(g.A)
			}
			continue
		}
		a := core.WireID(rng.Intn(int(defined)))
		b := core.WireID(rng.Intn(int(defined)))
		switch rng.Intn(4) {
		case 0:
			s.Assign(a)
		case 1:
			s.And(a, b)
		case 2:
			s.Or(a, b)
		case 3:
			s.Not(a)
		}
	}
	outputs := 1 + rng.Intn(numInputs)
	for i := 0; i < outputs; i++ {
		s.Output(core.WireID(rng.Intn(s.NumWires())))
	}
	return s
}

func randomInputs(rng *noise.RNG, n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = rng.Intn(2)
	}
	return in
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOptimizeGoldenEquivalence: for many random netlists, the plan's
// architectural evaluation must match the source netlist's Eval on
// random inputs — the passes preserve logical semantics.
func TestOptimizeGoldenEquivalence(t *testing.T) {
	rng := noise.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		spec := randomSpec(rng, 2+rng.Intn(6), 4+rng.Intn(40))
		plan, err := circopt.Optimize(spec, circopt.Options{})
		if err != nil {
			t.Fatalf("trial %d: Optimize: %v", trial, err)
		}
		unopt, err := circopt.Unoptimized(spec)
		if err != nil {
			t.Fatalf("trial %d: Unoptimized: %v", trial, err)
		}
		for v := 0; v < 8; v++ {
			in := randomInputs(rng, spec.NumInputs)
			want, err := spec.Eval(in)
			if err != nil {
				t.Fatalf("trial %d: Eval: %v", trial, err)
			}
			got, err := plan.Golden(in)
			if err != nil {
				t.Fatalf("trial %d: Golden: %v", trial, err)
			}
			if !equalInts(got, want) {
				t.Fatalf("trial %d inputs %v: plan %v != spec %v\nstats %+v",
					trial, in, got, want, plan.Stats)
			}
			if got, err = unopt.Golden(in); err != nil || !equalInts(got, want) {
				t.Fatalf("trial %d inputs %v: unoptimized plan %v (%v) != spec %v", trial, in, got, err, want)
			}
		}
	}
}

// TestOptimizePasses pins the individual passes on a hand-built
// netlist: a duplicated AND (CSE), an assign chain (copy propagation)
// and an unused gate (dead-wire elimination).
func TestOptimizePasses(t *testing.T) {
	s := core.NewCircuitSpec(2)
	and1 := s.And(0, 1)   // live
	and2 := s.And(0, 1)   // duplicate of and1
	buf := s.Assign(and2) // wiring
	or := s.Or(and1, buf) // live (reads the merged class twice)
	s.Not(or)             // dead: never an output
	s.Output(or)

	plan, err := circopt.Optimize(s, circopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats
	if st.Dupes != 1 {
		t.Errorf("Dupes = %d, want 1", st.Dupes)
	}
	if st.Assigns != 1 {
		t.Errorf("Assigns = %d, want 1", st.Assigns)
	}
	if st.Dead != 1 {
		t.Errorf("Dead = %d, want 1 (the NOT)", st.Dead)
	}
	if st.GatesOut != 2 {
		t.Errorf("GatesOut = %d, want 2 (one AND, one OR), plan %+v", st.GatesOut, plan.Gates)
	}
	if st.Levels != 2 {
		t.Errorf("Levels = %d, want 2", st.Levels)
	}

	// The unoptimized plan keeps all four non-assign gates, the
	// dead NOT included, and shares the optimized plan's address.
	unopt, err := circopt.Unoptimized(s)
	if err != nil {
		t.Fatal(err)
	}
	want := circopt.Stats{GatesIn: 5, Assigns: 1, GatesOut: 4, Levels: 3, MaxWidth: 2}
	if unopt.Stats != want {
		t.Errorf("unoptimized stats %+v, want %+v", unopt.Stats, want)
	}
	if unopt.Fingerprint != plan.Fingerprint {
		t.Errorf("unoptimized fingerprint %s, optimized %s", unopt.Fingerprint, plan.Fingerprint)
	}
}

// TestConstantFolding binds inputs and checks both the gate savings
// and logical equivalence at the bound point.
func TestConstantFolding(t *testing.T) {
	s := core.NewCircuitSpec(3)
	// (in0 & in1) | (!in1 & in2); binding in1=1 folds to in0 & 1 -> in0... | 0.
	a := s.And(0, 1)
	nb := s.Not(1)
	c := s.And(nb, 2)
	or := s.Or(a, c)
	s.Output(or)

	plan, err := circopt.Optimize(s, circopt.Options{Bind: map[core.WireID]int{1: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Folded == 0 {
		t.Errorf("Folded = 0, want > 0; stats %+v", plan.Stats)
	}
	if plan.Stats.GatesOut != 0 {
		t.Errorf("GatesOut = %d, want 0 (output collapses to in0); gates %+v", plan.Stats.GatesOut, plan.Gates)
	}
	for _, in0 := range []int{0, 1} {
		for _, in2 := range []int{0, 1} {
			want, _ := s.Eval([]int{in0, 1, in2})
			got, err := plan.Golden([]int{in0, 0, in2}) // bound wire's live value is ignored
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, want) {
				t.Errorf("in0=%d in2=%d: folded %v != golden %v", in0, in2, got, want)
			}
		}
	}
}

// TestLevelsWellFormed: levels must partition the gates of optimized
// and unoptimized plans alike, and every gate's operands must be
// produced strictly earlier.
func TestLevelsWellFormed(t *testing.T) {
	rng := noise.NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		spec := randomSpec(rng, 3, 5+rng.Intn(60))
		plan, err := circopt.Optimize(spec, circopt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		unopt, err := circopt.Unoptimized(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []*circopt.Plan{plan, unopt} {
			seen := make(map[int]bool)
			ready := make([]int, plan.Slots) // level a slot becomes available
			for li, level := range plan.Levels {
				for _, gi := range level {
					if seen[gi] {
						t.Fatalf("trial %d: gate %d scheduled twice", trial, gi)
					}
					seen[gi] = true
					g := plan.Gates[gi]
					if g.Level != li+1 {
						t.Fatalf("trial %d: gate %d in level group %d but Level=%d", trial, gi, li+1, g.Level)
					}
					if ready[g.A] >= g.Level || (g.B >= 0 && ready[g.B] >= g.Level) {
						t.Fatalf("trial %d: gate %d reads an operand of its own or a later level", trial, gi)
					}
					ready[g.Out] = g.Level
				}
			}
			if len(seen) != len(plan.Gates) {
				t.Fatalf("trial %d: levels cover %d of %d gates", trial, len(seen), len(plan.Gates))
			}
		}
	}
}

// TestStreamSharing: structurally identical gates must carry the same
// noise-stream id in the unoptimized walk, and every plan gate's
// stream must appear among the source streams — the alignment that
// makes serial-vs-optimized byte equality possible.
func TestStreamSharing(t *testing.T) {
	s := core.NewCircuitSpec(2)
	s.And(0, 1)
	s.And(0, 1)
	or := s.Or(core.WireID(2), core.WireID(3))
	s.Output(or)

	unopt, err := circopt.Unoptimized(s)
	if err != nil {
		t.Fatal(err)
	}
	streams := unopt.Gates
	if streams[0].Stream != streams[1].Stream {
		t.Errorf("duplicate gates carry different streams: %x vs %x", streams[0].Stream, streams[1].Stream)
	}
	plan, err := circopt.Optimize(s, circopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	source := map[uint64]bool{}
	for _, g := range streams {
		source[g.Stream] = true
	}
	for _, g := range plan.Gates {
		if !source[g.Stream] {
			t.Errorf("plan gate stream %x missing from source streams", g.Stream)
		}
	}
}

// TestFingerprintAndRoundTrip: the content address is stable, binding-
// sensitive, and survives the canonical JSON round trip.
func TestFingerprintAndRoundTrip(t *testing.T) {
	rng := noise.NewRNG(13)
	spec := randomSpec(rng, 4, 24)

	fp1, err := circopt.Fingerprint(spec, circopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := circopt.EncodeSpec(spec).DecodeSpec()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := circopt.Fingerprint(decoded, circopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("round-tripped netlist changed fingerprint: %s vs %s", fp1, fp2)
	}
	fp3, err := circopt.Fingerprint(spec, circopt.Options{Bind: map[core.WireID]int{0: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Error("binding did not change the fingerprint")
	}
	other := randomSpec(rng, 4, 24)
	fp4, err := circopt.Fingerprint(other, circopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp4 == fp1 {
		t.Error("distinct netlists share a fingerprint")
	}
}

// TestCache: hit/miss accounting, shared plan identity and LRU
// eviction.
func TestCache(t *testing.T) {
	rng := noise.NewRNG(17)
	cache := circopt.NewCache(2, nil)
	a := randomSpec(rng, 3, 16)

	p1, hit, err := cache.Plan(a, circopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first lookup reported a hit")
	}
	p2, hit, err := cache.Plan(a, circopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second lookup missed")
	}
	if p1 != p2 {
		t.Error("cache returned a different plan instance on hit")
	}

	// Evict a by inserting two more plans into the size-2 cache.
	if _, _, err := cache.Plan(randomSpec(rng, 3, 16), circopt.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Plan(randomSpec(rng, 3, 16), circopt.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := cache.Plan(a, circopt.Options{}); hit {
		t.Error("evicted plan still reported as a hit")
	}
	hits, misses, entries := cache.Stats()
	if hits != 1 || entries != 2 {
		t.Errorf("Stats = hits %d entries %d, want 1 and 2 (misses %d)", hits, entries, misses)
	}
}

// TestPresets: every preset builds, validates and survives a plan.
func TestPresets(t *testing.T) {
	for _, name := range circopt.PresetNames() {
		spec, err := circopt.Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: invalid netlist: %v", name, err)
		}
		plan, err := circopt.Optimize(spec, circopt.Options{})
		if err != nil {
			t.Fatalf("%s: Optimize: %v", name, err)
		}
		if plan.Stats.Eliminated() == 0 {
			t.Errorf("%s: optimizer eliminated nothing (stats %+v)", name, plan.Stats)
		}
	}
	if _, err := circopt.Preset("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}
