package slo

import (
	"encoding/json"
	"io"
	"testing"

	"uwm/internal/evlog"
)

// replay rebuilds the alert transitions offline from a recorded JSONL
// journal: every slo.observe record is fed, in recorded order, through
// a fresh engine built from defs. Observe evaluates at the
// observation's own timestamp and the engine consults no other clock,
// so the transitions marshal byte-for-byte equal to the live engine's.
func replay(t *testing.T, journal io.Reader, defs []Definition) []Transition {
	t.Helper()
	eng, err := New(Config{SLOs: defs})
	if err != nil {
		t.Fatal(err)
	}
	_, sub := eng.Subscribe()
	dec := json.NewDecoder(journal)
	for {
		var r evlog.Record
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if r.Component != Component || r.Event != ObserveEvent {
			continue
		}
		var obs Observation
		if err := json.Unmarshal(r.Data, &obs); err != nil {
			t.Fatal(err)
		}
		if obs.At.IsZero() {
			obs.At = r.At
		}
		eng.Observe(obs)
	}
	return drain(sub)
}

// drain returns the transitions waiting on a subscription.
func drain(sub <-chan Transition) []Transition {
	var out []Transition
	for {
		select {
		case tr, ok := <-sub:
			if !ok {
				return out
			}
			out = append(out, tr)
		default:
			return out
		}
	}
}
