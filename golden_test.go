package uwm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"uwm/internal/circopt"
	"uwm/internal/core"
	"uwm/internal/noise"
	"uwm/internal/skelly"
	"uwm/internal/trace"
)

// The golden pin: fixed-seed simulator runs hashed against committed
// digests. A change that is meant only to make the simulator faster
// must leave every virtual cycle, noise draw and output bit where it
// was, and these digests are how that is checked. A change that moves
// them on purpose says so and re-records the constants below (the
// failure message prints the new digest).
//
// Each digest covers the output bits, the measured read latencies and
// the TSC advance of every activation, plus the machine's lifetime
// CPU and cache counters at the end of the run.

// goldenSeed is the machine seed every pinned run uses.
const goldenSeed = 20211017

// goldenActs is the number of activations per gate in the per-gate pins.
const goldenActs = 300

// goldenDigests are the recorded digests, keyed by run name.
var goldenDigests = map[string]string{
	"circopt/adder32":      "56d42d710a11b6e8a20b4b375439c7e6977c3cbb30e897ef9cffb74c6377ff0d",
	"gate/AND":             "eae107d030b6b22b8e633e04f7c0d15e766f51942022d7f187e5018aaf059deb",
	"gate/AND_AND_OR":      "5c162ec5b9c6aed147eeabfed4404eed64bf8160070836e5bd8837094cf350fc",
	"gate/NAND":            "690f258033ddfb12d3b35a66bc0fa01380a6ada029b3b901ae85079c587db628",
	"gate/OR":              "2d475ef020bfb4fd97d827110d74f0bb0bf81453b62e1d2b9b600472a96a43b7",
	"gate/TSX_AND":         "1b45967cff57362a5b5f8393144471fc6ea979e1051d538e7e0a131404f7a89f",
	"gate/TSX_ASSIGN":      "ff5b0161c1437ee4a528b3a1e5182b64e0b897d92059d48f57fffdffe94b0dc3",
	"gate/TSX_OR":          "f72ec203709695a38d60e5210d2e2102fc1551254b104598e118ccf32fbc2c4d",
	"gate/TSX_XOR":         "dbd95e9099004ecdf7fb25a735a7c593ee4a239e1f87e54e97091af4b3226139",
	"paper-noise/mixed":    "4c6fca314c54f15361da4dd23f584aad1fc499aaece7ebb0354c5b774150b9b0",
	"registers/contention": "a04145db8fe403107e018663c413ac3c5d39955c314bfac306ddeaa7b792d944",
	"trace/jsonl":          "ca9ae1ab75d41ca8fff56ab1a6c30c028c84328570797f53b097e60c33e579c3",
}

// goldenGates lists the engine's eight gates in the engine's build order.
var goldenGates = []string{
	"AND", "OR", "NAND", "AND_AND_OR",
	"TSX_AND", "TSX_OR", "TSX_XOR", "TSX_ASSIGN",
}

// goldenRig is one machine carrying the engine's eight gates behind a
// uniform timed runner.
type goldenRig struct {
	m     *core.Machine
	arity [8]int
	run   [8]func(in []int) ([]int, []int64, error)
}

func newGoldenRig(t *testing.T, nc noise.Config, sink trace.Sink) *goldenRig {
	t.Helper()
	m, err := core.NewMachine(core.Options{
		Seed:            goldenSeed,
		Noise:           nc,
		TrainIterations: 4,
		Sink:            sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &goldenRig{m: m}
	for i, build := range []func(*core.Machine) (*core.BPGate, error){
		core.NewBPAnd, core.NewBPOr, core.NewBPNand, core.NewBPAndAndOr,
	} {
		g, err := build(m)
		if err != nil {
			t.Fatal(err)
		}
		r.arity[i] = g.Arity()
		r.run[i] = func(in []int) ([]int, []int64, error) {
			bit, d, err := g.RunTimed(in...)
			return []int{bit}, []int64{d}, err
		}
	}
	for i, build := range []func(*core.Machine) (*core.TSXGate, error){
		core.NewTSXAnd, core.NewTSXOr, core.NewTSXXor, core.NewTSXAssign,
	} {
		g, err := build(m)
		if err != nil {
			t.Fatal(err)
		}
		r.arity[4+i] = g.Arity()
		r.run[4+i] = func(in []int) ([]int, []int64, error) { return g.RunTimed(in...) }
	}
	return r
}

// activate runs gate g once on inputs drawn from rng and writes the
// activation's inputs, outputs, read latencies and TSC advance to h.
func (r *goldenRig) activate(t *testing.T, h hash.Hash, rng *noise.RNG, g int) {
	t.Helper()
	in := make([]int, r.arity[g])
	for k := range in {
		in[k] = rng.Bit()
	}
	c0 := r.m.CPU().TSC()
	bits, deltas, err := r.run[g](in)
	if err != nil {
		t.Fatalf("%s%v: %v", goldenGates[g], in, err)
	}
	fmt.Fprintf(h, "%s %v %v %v %d\n", goldenGates[g], in, bits, deltas, r.m.CPU().TSC()-c0)
}

// finish appends the machine's lifetime counters to h.
func (r *goldenRig) finish(h hash.Hash) {
	c := r.m.CPU()
	hier := c.Hierarchy()
	fmt.Fprintf(h, "threshold=%d tsc=%d cpu=%+v\n", r.m.Threshold(), c.TSC(), c.Stats())
	fmt.Fprintf(h, "l1d=%+v l1i=%+v l2=%+v\n", hier.L1D().Stats(), hier.L1I().Stats(), hier.L2().Stats())
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// goldenRuns computes every pinned digest.
func goldenRuns(t *testing.T) map[string]string {
	got := make(map[string]string)

	// Per gate: a fresh engine-style rig (noise.Replayable), one gate
	// activated goldenActs times on seeded random inputs.
	for g, name := range goldenGates {
		r := newGoldenRig(t, noise.Replayable(), nil)
		h := sha256.New()
		rng := noise.NewRNG(noise.SubSeed(goldenSeed, uint64(g)))
		for i := 0; i < goldenActs; i++ {
			r.activate(t, h, rng, g)
		}
		r.finish(h)
		got["gate/"+name] = digest(h)
	}

	// All eight gates interleaved under the full paper noise model,
	// which also draws the DRAM and window jitter Replayable zeroes.
	{
		r := newGoldenRig(t, noise.Paper(), nil)
		h := sha256.New()
		rng := noise.NewRNG(noise.SubSeed(goldenSeed, 0xA11))
		for i := 0; i < 400; i++ {
			r.activate(t, h, rng, rng.Intn(len(goldenGates)))
		}
		r.finish(h)
		got["paper-noise/mixed"] = digest(h)
	}

	// One traced run: the JSONL trace bytes of calibration, gate
	// construction and four activations of every gate.
	{
		var buf bytes.Buffer
		sink := trace.NewJSONLSink(&buf)
		r := newGoldenRig(t, noise.Replayable(), sink)
		rng := noise.NewRNG(noise.SubSeed(goldenSeed, 0x7CE))
		for g := range goldenGates {
			for i := 0; i < 4; i++ {
				r.activate(t, sha256.New(), rng, g)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(buf.Bytes())
		got["trace/jsonl"] = digest(h)
	}

	// The contention weird registers, whose stored bit is the decayed
	// multiply-unit and reorder-buffer pressure.
	{
		m, err := core.NewMachine(core.Options{Seed: goldenSeed, Noise: noise.Replayable()})
		if err != nil {
			t.Fatal(err)
		}
		mul, err := core.NewMulWR(m)
		if err != nil {
			t.Fatal(err)
		}
		rob, err := core.NewROBWR(m)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		rng := noise.NewRNG(noise.SubSeed(goldenSeed, 0x3E6))
		for i := 0; i < 200; i++ {
			for _, w := range []interface {
				Write(int) error
				Idle() error
				ReadRaw() (int, int64, error)
			}{mul, rob} {
				bit := rng.Bit()
				if err := w.Write(bit); err != nil {
					t.Fatal(err)
				}
				if rng.Bit() == 1 {
					if err := w.Idle(); err != nil {
						t.Fatal(err)
					}
				}
				v, d, err := w.ReadRaw()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%d %d %d %d\n", bit, v, d, m.CPU().TSC())
			}
		}
		fmt.Fprintf(h, "cpu=%+v\n", m.CPU().Stats())
		got["registers/contention"] = digest(h)
	}

	// One adder32 plan, optimized by circopt and evaluated serially on
	// an engine-style skelly library.
	{
		m, err := core.NewMachine(core.Options{Seed: goldenSeed, Noise: noise.Replayable(), TrainIterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		lib, err := skelly.New(m, skelly.FastConfig())
		if err != nil {
			t.Fatal(err)
		}
		spec, err := circopt.Preset("adder32")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := circopt.Optimize(spec, circopt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "plan=%s gates=%d\n", plan.Fingerprint, len(plan.Gates))
		rng := noise.NewRNG(noise.SubSeed(goldenSeed, 0xADD))
		for v := 0; v < 3; v++ {
			in := make([]int, spec.NumInputs)
			for k := range in {
				in[k] = rng.Bit()
			}
			c0 := m.CPU().TSC()
			out, err := circopt.EvalPlan(lib, plan, in, uint64(v))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%v %v %d\n", in, out, m.CPU().TSC()-c0)
		}
		fmt.Fprintf(h, "cpu=%+v\n", m.CPU().Stats())
		got["circopt/adder32"] = digest(h)
	}
	return got
}

// TestGoldenPin fails when any pinned run's digest moves.
func TestGoldenPin(t *testing.T) {
	got := goldenRuns(t)
	for name, d := range got {
		want, ok := goldenDigests[name]
		switch {
		case !ok:
			t.Errorf("%s: no pinned digest (got %q)", name, d)
		case d != want:
			t.Errorf("%s: digest %s, pinned %s", name, d, want)
		}
	}
	for name := range goldenDigests {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned run no longer computed", name)
		}
	}
}
