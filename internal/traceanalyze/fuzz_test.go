package traceanalyze

import (
	"bytes"
	"testing"

	"uwm/internal/core"
	"uwm/internal/noise"
	"uwm/internal/trace"
)

// FuzzParseJSONL drives the decoder uwm-trace -from feeds server bytes
// to. No input may panic it, and every stream it accepts must survive
// a re-encode through trace.JSONLSink and parse back to the same
// events.
func FuzzParseJSONL(f *testing.F) {
	// A recorded gate trace: two TSX AND activations, sink attached
	// after calibration so the seed stays small.
	m, err := core.NewMachine(core.Options{Seed: 7, Noise: noise.Replayable(), TrainIterations: 3})
	if err != nil {
		f.Fatal(err)
	}
	g, err := core.NewTSXAnd(m)
	if err != nil {
		f.Fatal(err)
	}
	var rec bytes.Buffer
	sink := trace.NewJSONLSink(&rec)
	m.CPU().SetSink(sink)
	for i := 0; i < 2; i++ {
		if _, err := g.Run(1, i); err != nil {
			f.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Add(rec.Bytes()[:rec.Len()-25]) // truncated final line
	f.Add([]byte(`{"kind":"commit","plane":"arch","cycle":1}` + "\n" + `{"kind":"warp-drive","plane":"uarch","cycle":2}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ParseJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		sink := trace.NewJSONLSink(&buf)
		for _, e := range res.Events {
			sink.Emit(e)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ParseJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if again.Truncated || len(again.Events) != len(res.Events) {
			t.Fatalf("re-encoded stream: %d events (truncated %v), want %d",
				len(again.Events), again.Truncated, len(res.Events))
		}
		for i, e := range again.Events {
			if e != res.Events[i] {
				t.Fatalf("event %d: %+v after round trip, %+v before", i, e, res.Events[i])
			}
		}
	})
}
