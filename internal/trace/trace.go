// Package trace records the simulator's execution events on two distinct
// planes: the architectural plane (committed instructions, register and
// memory writes — everything a debugger or emulator can observe) and the
// microarchitectural plane (speculative execution, cache fills and
// evictions, transaction internals — the plane μWMs compute on).
//
// The split is the point of the paper: package analyzer builds the
// defender's view exclusively from architectural events, and the
// obfuscation tests prove that the weird computation never appears there.
//
// Events flow through the Sink interface: the buffering Recorder is one
// implementation; JSONLSink and ChromeSink stream events to files (the
// latter in the Chrome trace_event format that chrome://tracing and
// Perfetto open directly); Tee fans one event stream out to several
// sinks.
package trace

import "fmt"

// Kind enumerates event types.
type Kind uint8

// Event kinds. Kinds below microBoundary are architectural.
const (
	KindCommit Kind = iota // architectural: instruction committed
	KindRegWrite
	KindMemWrite
	KindTxBegin // architectural: XBEGIN committed
	KindTxEnd   // architectural: transaction committed
	KindTxAbort // architectural: control arrived at abort handler

	microBoundary

	KindSpecStart   Kind = iota // μarch: speculative window opened
	KindSpecExec                // μarch: instruction executed transiently
	KindSpecEnd                 // μarch: window closed / rolled back
	KindCacheFill               // μarch: line filled
	KindCacheEvict              // μarch: line evicted
	KindCacheFlush              // μarch: line flushed
	KindTimedRead               // μarch: measured latency value
	KindNoise                   // μarch: injected noise event
	KindSpanBegin               // μarch: profiling frame opened (Value=span id, Addr=parent id, Text=frame)
	KindSpanEnd                 // μarch: profiling frame closed (Value=span id, Text=frame)
	KindCalibration             // μarch: timing threshold (re)calibrated (Value=threshold cycles)
	KindAnnotation              // μarch: free-form attribute attached to a span (Addr=span id, Text=key=value pairs)

	kindEnd // sentinel; keep last
)

// AllKinds returns every declared event kind in declaration order. The
// kind tests iterate this to force plane/name updates when a kind is
// added, and the file sinks use it to emit category metadata.
func AllKinds() []Kind {
	out := make([]Kind, 0, int(kindEnd)-1)
	for k := Kind(0); k < kindEnd; k++ {
		if k == microBoundary {
			continue
		}
		out = append(out, k)
	}
	return out
}

// Architectural reports whether events of this kind are visible on the
// architectural plane (i.e. to a debugger with full register/memory
// visibility but no microarchitectural instrumentation).
func (k Kind) Architectural() bool { return k < microBoundary }

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCommit:
		return "commit"
	case KindRegWrite:
		return "reg-write"
	case KindMemWrite:
		return "mem-write"
	case KindTxBegin:
		return "tx-begin"
	case KindTxEnd:
		return "tx-end"
	case KindTxAbort:
		return "tx-abort"
	case KindSpecStart:
		return "spec-start"
	case KindSpecExec:
		return "spec-exec"
	case KindSpecEnd:
		return "spec-end"
	case KindCacheFill:
		return "cache-fill"
	case KindCacheEvict:
		return "cache-evict"
	case KindCacheFlush:
		return "cache-flush"
	case KindTimedRead:
		return "timed-read"
	case KindNoise:
		return "noise"
	case KindSpanBegin:
		return "span-begin"
	case KindSpanEnd:
		return "span-end"
	case KindCalibration:
		return "calibration"
	case KindAnnotation:
		return "annotation"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind resolves a kind name (as produced by Kind.String and the
// JSONL sink) back to its Kind — the inverse mapping the offline trace
// parser needs. It reports false for unknown names.
func ParseKind(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind)
	for _, k := range AllKinds() {
		m[k.String()] = k
	}
	return m
}()

// Event is one recorded simulator event.
//
// Span events (KindSpanBegin/KindSpanEnd) reuse the scalar fields: Value
// carries the span id, Addr the parent span id (0 for a root span) and
// Text the frame name ("gate:TSX_AND", "cpu:fire", ...). The pair with
// matching ids brackets the virtual cycles the frame consumed — the raw
// material of the vprof cycle profiler.
type Event struct {
	Kind  Kind
	Cycle int64  // simulated TSC when the event happened
	PC    uint64 // code address, when applicable
	Addr  uint64 // data address / parent span id, when applicable
	Value uint64 // written value / measured latency / span id, when applicable
	Text  string // disassembly, frame name, or free-form detail
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("[%10d] %-11s pc=%#x addr=%#x val=%d %s",
		e.Cycle, e.Kind, e.PC, e.Addr, e.Value, e.Text)
}

// Sink consumes the simulator's event stream. Implementations:
// Recorder (bounded in-memory ring), JSONLSink and ChromeSink
// (streaming file export), Tee (fan-out). A sink may optionally
// implement Enabled() bool to advertise that it is currently dropping
// everything; emitters use Enabled to skip expensive event assembly
// (disassembly, formatting).
type Sink interface {
	Emit(e Event)
}

// Enabled reports whether events emitted to s can currently be
// observed: false for a nil Sink, the sink's own answer when it
// implements Enabled() bool (e.g. a toggled-off Recorder), and true
// otherwise.
func Enabled(s Sink) bool {
	if s == nil {
		return false
	}
	if e, ok := s.(interface{ Enabled() bool }); ok {
		return e.Enabled()
	}
	return true
}

// Tee returns a Sink forwarding every event to each non-nil sink. It
// returns nil when no live sink remains and the sink itself when only
// one does, so emitters keep their cheap single-sink path.
func Tee(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return multiSink(live)
	}
}

type multiSink []Sink

// Emit implements Sink.
func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Enabled reports whether any fanned-out sink is live.
func (m multiSink) Enabled() bool {
	for _, s := range m {
		if Enabled(s) {
			return true
		}
	}
	return false
}

// Recorder collects events in a bounded ring buffer. When the limit is
// hit the *oldest* events are overwritten so the buffer always holds
// the newest tail of the run — the interesting part when a gate
// misfires at the end of a long sweep. A nil *Recorder is disabled: it
// drops events with near-zero cost so that hot benchmark loops are
// unaffected.
type Recorder struct {
	limit   int
	events  []Event
	start   int // ring: index of the oldest stored event
	dropped int
}

// NewRecorder returns a recorder keeping the newest limit events (0
// means unlimited).
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Enabled reports whether the recorder stores events: it does unless
// it is nil.
func (r *Recorder) Enabled() bool { return r != nil }

// Record stores an event unless r is nil, overwriting the oldest
// stored event once the limit is reached.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if r.limit > 0 && len(r.events) >= r.limit {
		r.events[r.start] = e
		r.start++
		if r.start == len(r.events) {
			r.start = 0
		}
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Emit implements Sink.
func (r *Recorder) Emit(e Event) { r.Record(e) }

// Events returns all stored events in order, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.start == 0 {
		return r.events
	}
	return r.AppendEvents(make([]Event, 0, len(r.events)))
}

// AppendEvents appends copies of the stored events to dst, oldest
// first, and returns the extended slice.
func (r *Recorder) AppendEvents(dst []Event) []Event {
	if r == nil {
		return dst
	}
	dst = append(dst, r.events[r.start:]...)
	return append(dst, r.events[:r.start]...)
}

// Len returns how many events are stored.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Dropped returns how many events were overwritten due to the limit.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Reset clears stored events, keeping the buffer's capacity.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.events = r.events[:0]
	r.start = 0
	r.dropped = 0
}

// Architectural returns only the events visible on the architectural
// plane, in order — the defender's complete evidence.
func (r *Recorder) Architectural() []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind.Architectural() {
			out = append(out, e)
		}
	}
	return out
}
