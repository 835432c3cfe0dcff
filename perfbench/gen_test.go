package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"uwm/internal/circopt"
)

// drawGates, drawCircuit and drawServe render the first n operations of
// a seed's workload as comparable strings.
func drawGates(seed uint64, n int) []string {
	s := newGateStream(seed)
	out := make([]string, n)
	for i := range out {
		g, in := s.next()
		out[i] = fmt.Sprint(g, in)
	}
	return out
}

func drawCircuit(t *testing.T, seed uint64, n int) []circuitJob {
	t.Helper()
	s := newCircuitStream(seed)
	out := make([]circuitJob, n)
	for i := range out {
		var err error
		if out[i], err = s.next(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func drawServe(t *testing.T, seed uint64, n int) []serveReq {
	t.Helper()
	s, err := newServeStream(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]serveReq, n)
	for i := range out {
		if out[i], err = s.next(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	if a, b := drawGates(7, 2000), drawGates(7, 2000); !slices.Equal(a, b) {
		t.Error("gates: one seed gave two different input streams")
	}
	if a, b := drawGates(7, 2000), drawGates(8, 2000); slices.Equal(a, b) {
		t.Error("gates: seeds 7 and 8 gave the same input stream")
	}

	render := func(jobs []circuitJob) []string {
		out := make([]string, len(jobs))
		for i, j := range jobs {
			out[i] = fmt.Sprintf("%d %s", j.seed, j.params)
		}
		return out
	}
	if a, b := render(drawCircuit(t, 7, 40)), render(drawCircuit(t, 7, 40)); !slices.Equal(a, b) {
		t.Error("circuit: one seed gave two different job streams")
	}
	if a, b := render(drawCircuit(t, 7, 40)), render(drawCircuit(t, 8, 40)); slices.Equal(a, b) {
		t.Error("circuit: seeds 7 and 8 gave the same job stream")
	}

	bodies := func(reqs []serveReq) []string {
		out := make([]string, len(reqs))
		for i, r := range reqs {
			out[i] = string(r.body)
		}
		return out
	}
	if a, b := bodies(drawServe(t, 7, 1000)), bodies(drawServe(t, 7, 1000)); !slices.Equal(a, b) {
		t.Error("serve: one seed gave two different request streams")
	}
	if a, b := bodies(drawServe(t, 7, 1000)), bodies(drawServe(t, 8, 1000)); slices.Equal(a, b) {
		t.Error("serve: seeds 7 and 8 gave the same request stream")
	}
}

func TestGatesMixIsUniform(t *testing.T) {
	s := newGateStream(3)
	var n [8]int
	const total = 80000
	for i := 0; i < total; i++ {
		g, _ := s.next()
		n[g]++
	}
	for g, c := range n {
		if share := float64(c) / total; share < 0.115 || share > 0.135 {
			t.Errorf("%s drawn %.3f of the time, want 1/8", gateNames[g], share)
		}
	}
}

func TestCircuitSharesMatchDeclared(t *testing.T) {
	const n = 8 * 25
	jobs := drawCircuit(t, 11, n)
	var preset, inline, unopt int
	seen := make(map[string]bool)
	for _, j := range jobs {
		var p struct {
			Circuit  string            `json:"circuit"`
			Spec     *circopt.SpecJSON `json:"spec"`
			Inputs   [][]int           `json:"inputs"`
			Optimize *bool             `json:"optimize"`
		}
		dec := json.NewDecoder(bytes.NewReader(j.params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("params %s: %v", j.params, err)
		}
		if len(p.Inputs) != circuitVectorsPerJob {
			t.Errorf("job carries %d vectors, want %d", len(p.Inputs), circuitVectorsPerJob)
		}
		switch {
		case p.Circuit != "":
			preset++
		case p.Spec != nil:
			inline++
			fp, err := circopt.Fingerprint(j.spec, circopt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if seen[fp] {
				t.Error("an inline netlist was generated twice; it would hit the plan cache")
			}
			seen[fp] = true
			if _, err := circopt.Optimize(j.spec, circopt.Options{}); err != nil {
				t.Errorf("inline netlist does not optimize: %v", err)
			}
		}
		if p.Optimize != nil && !*p.Optimize {
			unopt++
		}
	}
	for _, c := range []struct {
		name     string
		got      int
		declared float64
	}{
		{"preset", preset, circuitPresetShare},
		{"inline", inline, circuitInlineShare},
		{"optimize:false", unopt, circuitUnoptShare},
	} {
		if share := float64(c.got) / n; share != c.declared {
			t.Errorf("%s share is %.4f, declared %.4f", c.name, share, c.declared)
		}
	}
}

func TestServeSharesMatchDeclared(t *testing.T) {
	const n = serveRepeatFrom + 4*1024
	reqs := drawServe(t, 11, n)
	var repeats, fresh, circuits int
	for i, r := range reqs {
		if r.repeat < 0 {
			fresh++
			if r.spec != nil {
				circuits++
			}
			continue
		}
		repeats++
		if i < serveRepeatFrom {
			t.Errorf("request %d repeats before request %d", i, serveRepeatFrom)
		}
		if d := i - r.repeat; d < 4 || d > 16 {
			t.Errorf("request %d repeats request %d, %d back", i, r.repeat, d)
		}
		if orig := reqs[r.repeat]; orig.repeat >= 0 || !bytes.Equal(orig.body, r.body) {
			t.Errorf("request %d is not a byte-for-byte repeat of fresh request %d", i, r.repeat)
		}
	}
	if share := float64(repeats) / float64(n-serveRepeatFrom); share != serveRepeatShare {
		t.Errorf("repeat share is %.4f, declared %.4f", share, serveRepeatShare)
	}
	if share := float64(circuits) / float64(fresh); share < serveCircuitShare*0.95 || share > serveCircuitShare*1.05 {
		t.Errorf("circuit share of fresh requests is %.4f, declared %.4f", share, serveCircuitShare)
	}
	seeds := make(map[string]bool)
	for _, r := range reqs {
		var body struct {
			Seed uint64 `json:"seed"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil || body.Seed == 0 {
			t.Fatalf("request %s is not seeded", r.body)
		}
		if r.repeat < 0 && seeds[string(r.body)] {
			t.Errorf("fresh request %s was generated twice", r.body)
		}
		seeds[string(r.body)] = true
	}
}

func TestGateTruthTables(t *testing.T) {
	for _, c := range []struct {
		gate string
		in   []int
		want int
	}{
		{"AND", []int{1, 1}, 1}, {"AND", []int{1, 0}, 0},
		{"OR", []int{0, 0}, 0}, {"OR", []int{0, 1}, 1},
		{"NAND", []int{1, 1}, 0}, {"NAND", []int{0, 1}, 1},
		{"AND_AND_OR", []int{0, 1, 1, 1}, 1}, {"AND_AND_OR", []int{1, 0, 0, 1}, 0},
		{"TSX_XOR", []int{1, 1}, 0}, {"TSX_XOR", []int{1, 0}, 1},
		{"TSX_ASSIGN", []int{1}, 1}, {"TSX_AND", []int{0, 1}, 0}, {"TSX_OR", []int{1, 0}, 1},
	} {
		if got, err := gateTruth(c.gate, c.in); err != nil || got != c.want {
			t.Errorf("%s%v = %d, %v; want %d", c.gate, c.in, got, err, c.want)
		}
	}
	if _, err := gateTruth("AND", []int{1}); err == nil {
		t.Error("AND with one input was accepted")
	}
}
