package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"uwm/internal/flightrec"
	"uwm/internal/health"
	"uwm/internal/trace"
)

// flightGoldenDigests pin the kept flight-recorder captures of a fixed
// two-job run: the sha256 of each capture's JSONL export plus its event
// and overwrite counts. Every event the CPU and the gates emit under
// the recorder — kind, cycle, PC, address, value and text — feeds the
// digest, so a change meant only to make traced runs cheaper must leave
// these where they are.
var flightGoldenDigests = map[string]string{
	"circuit/adder8": "3467cda356f4a11b81a3343de8b5df63ac3ec9bddf87faf7873e5cd916a3c91a",
	"gate/TSX_XOR":   "cf8c62c7b380a314526a98424c393b402a7e3da69eafff28faac454f1ab3d8be",
}

// TestFlightCaptureGolden runs one adder8 circuit job and one TSX_XOR
// gate job on a one-worker engine that keeps every capture, and checks
// each kept capture's digest and that replaying it offline reproduces
// the live drift verdict.
func TestFlightCaptureGolden(t *testing.T) {
	// An unbounded capture: the digest covers every event the jobs emit,
	// and the replay needs every read to reproduce the live verdict.
	fr := flightrec.New(flightrec.Config{HeadRate: 1, MaxEventsPerTrace: -1})
	e := newTestEngine(t, Config{Workers: 1, Seed: 20211017, FlightRec: fr})
	jobs := []struct {
		name string
		spec JobSpec
	}{
		{"circuit/adder8", JobSpec{Type: JobTypeCircuit, Params: rawParams(t, CircuitParams{Circuit: "adder8", Random: 2})}},
		{"gate/TSX_XOR", JobSpec{Type: JobTypeGate, Params: rawParams(t, GateParams{Gate: "TSX_XOR", Random: 8})}},
	}
	got := make(map[string]string)
	for _, job := range jobs {
		j := mustSubmit(t, e, job.spec)
		if snap := waitJob(t, j); snap.Status != StatusDone {
			t.Fatalf("%s finished %s (%s)", job.name, snap.Status, snap.Error)
		}
		kt, ok := fr.Get(j.ID())
		if !ok {
			t.Fatalf("%s: capture not kept", job.name)
		}
		var buf bytes.Buffer
		if err := trace.EncodeJSONL(&buf, kt.Events); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(buf.Bytes())
		fmt.Fprintf(h, "events=%d dropped=%d\n", kt.Entry.Events, kt.Entry.DroppedEvents)
		got[job.name] = hex.EncodeToString(h.Sum(nil))

		live, err := json.Marshal(kt.Entry.Verdict)
		if err != nil {
			t.Fatal(err)
		}
		v := health.Replay(kt.Events).Verdict()
		replay, err := json.Marshal(&v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live, replay) {
			t.Errorf("%s: replayed verdict diverged from live\nlive:   %s\nreplay: %s", job.name, live, replay)
		}
	}
	for name, want := range flightGoldenDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, pinned %s", name, got[name], want)
		}
	}
}
