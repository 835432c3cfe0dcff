// Package evlog is the serving stack's structured event log: leveled,
// rate-limited JSONL records in which every entry carries the job id,
// request id and trace id of the work that produced it.
//
// The log exists to close the correlation loop the flight recorder and
// the SLO engine open: an alert names the trace ids that burned the
// budget, the flight recorder holds those traces, and the event log
// holds the retry/disagreement/recalibration/panic boundaries the
// engine crossed on the way there — all three keyed by the same ids.
//
// Records are plain JSON lines, so the recorded stream doubles as a
// replayable input: re-feeding the observation records through a fresh
// SLO engine reproduces the live alert transitions byte-for-byte (the records carry their own timestamps, and the SLO
// engine evaluates only at observation boundaries).
//
// Rate limiting is a per-(component, event) token bucket: bursts pass,
// sustained floods are dropped and counted, and the next record that
// passes carries a "suppressed" field naming how many were dropped
// since the last one — the log never silently loses the *fact* of a
// flood, only its bulk. Records marked Unlimited (observations, alert
// transitions) bypass the limiter: they are the replay substrate and
// must never be dropped.
package evlog

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"uwm/internal/metrics"
)

// Level is a record's severity.
type Level int8

// Severity levels, least to most severe. Info is deliberately the zero
// value and the logger's minimum level: Debug records are dropped.
const (
	Debug Level = iota - 1
	Info
	Warn
	Error
)

// String names the level the way the JSONL encoding spells it.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel resolves a level name; it reports false for unknown names.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "debug":
		return Debug, true
	case "info":
		return Info, true
	case "warn":
		return Warn, true
	case "error":
		return Error, true
	default:
		return Info, false
	}
}

// MarshalJSON encodes the level as its name.
func (l Level) MarshalJSON() ([]byte, error) { return json.Marshal(l.String()) }

// UnmarshalJSON decodes a level name; unknown names degrade to Info so
// a replay of a newer stream keeps going.
func (l *Level) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, _ := ParseLevel(s)
	*l = v
	return nil
}

// Field is one ordered key=value attribute of a record. Fields are a
// slice, not a map: the JSONL encoding must be byte-stable so recorded
// streams diff and replay deterministically.
type Field struct {
	Key   string
	Value string
}

// F is shorthand for constructing a Field.
func F(key, value string) Field { return Field{Key: key, Value: value} }

// Fields is the ordered attribute list; it marshals as a JSON object
// in slice order.
type Fields []Field

// MarshalJSON renders the fields as an object, preserving order.
func (fs Fields) MarshalJSON() ([]byte, error) {
	var buf []byte
	buf = append(buf, '{')
	for i, f := range fs {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(f.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(f.Value)
		if err != nil {
			return nil, err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON decodes an object back into ordered fields. JSON
// objects are unordered on the wire, so decoded fields are sorted by
// key — replay consumers address fields by key, never by position.
func (fs *Fields) UnmarshalJSON(b []byte) error {
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	out := make(Fields, 0, len(m))
	for k, v := range m {
		out = append(out, Field{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	*fs = out
	return nil
}

// Get returns the value of the named field, or "".
func (fs Fields) Get(key string) string {
	for _, f := range fs {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// Record is one structured log entry.
type Record struct {
	// At is the record's timestamp. The logger stamps it from its clock
	// when zero; emitters that already hold a virtual-clock time (the
	// SLO engine's observations) set it so the written stream replays
	// on the same timeline.
	At        time.Time `json:"at"`
	Level     Level     `json:"level"`
	Component string    `json:"component"`
	// Event is the short machine-readable key ("job.retry",
	// "worker.panic", "alert.fire"); consumers filter on it.
	Event string `json:"event"`
	Msg   string `json:"msg,omitempty"`
	// Correlation ids: the job, the caller's request, and the kept
	// flight-recording (when the recorder kept one; it resolves at
	// GET /v1/jobs/{id}/trace).
	JobID     string `json:"job_id,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	Fields    Fields `json:"fields,omitempty"`
	// Data carries a structured payload (an slo.Observation, an alert
	// transition) for consumers that replay the stream.
	Data json.RawMessage `json:"data,omitempty"`
	// Suppressed is stamped by the logger: how many records of this
	// (component, event) the rate limiter dropped since the last one
	// that passed.
	Suppressed uint64 `json:"suppressed,omitempty"`

	// Unlimited bypasses the rate limiter — for records that are
	// replay substrate (observations, alert transitions) rather than
	// diagnostics. Never serialized.
	Unlimited bool `json:"-"`
}

// Metric series exported by the logger.
const (
	MetricRecords    = "uwm_evlog_records_total"
	MetricSuppressed = "uwm_evlog_suppressed_total"
)

// Logger settings.
const (
	// minLevel drops records below this severity.
	minLevel = Info
	// ringSize bounds the in-memory tail served by Recent.
	ringSize = 256
	// burst is the rate limiter's bucket size per (component, event)
	// key.
	burst = 10
	// perSecond is the limiter's refill rate.
	perSecond = 5
)

// Config tunes a Logger.
type Config struct {
	// W receives the JSONL stream; nil keeps records only in the ring.
	W io.Writer
	// Clock supplies timestamps for records that arrive unstamped;
	// nil selects time.Now. Tests and offline replays inject a virtual
	// clock so the written stream is deterministic.
	Clock func() time.Time
	// Metrics, when non-nil, receives the logger's instruments.
	Metrics *metrics.Registry
}

// bucket is one (component, event) token bucket.
type bucket struct {
	tokens     float64
	last       time.Time
	suppressed uint64
}

// Logger writes structured records. All methods are safe for
// concurrent use, and the nil Logger is a valid, disabled logger —
// every method no-ops — so uninstrumented engines pay one nil check.
type Logger struct {
	mu      sync.Mutex
	cfg     Config
	buckets map[string]*bucket
	ring    []Record
	start   int
	werr    error

	records    [4]*metrics.Counter // by level
	suppressed *metrics.Counter
}

// New builds a Logger.
func New(cfg Config) *Logger {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	l := &Logger{cfg: cfg, buckets: make(map[string]*bucket), ring: make([]Record, 0, ringSize)}
	reg := cfg.Metrics
	for lv := Debug; lv <= Error; lv++ {
		l.records[levelIndex(lv)] = reg.Counter(MetricRecords,
			"structured log records written, by level", metrics.L("level", lv.String()))
	}
	l.suppressed = reg.Counter(MetricSuppressed,
		"structured log records dropped by the rate limiter")
	return l
}

// Emit files one record: below-level and rate-limited records are
// dropped (and counted), everything else is stamped, ringed and
// written as one JSON line.
func (l *Logger) Emit(r Record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.Level < minLevel {
		return
	}
	if r.At.IsZero() {
		r.At = l.cfg.Clock()
	}
	if !r.Unlimited {
		key := r.Component + "\x00" + r.Event
		b := l.buckets[key]
		if b == nil {
			b = &bucket{tokens: burst, last: r.At}
			l.buckets[key] = b
		}
		if dt := r.At.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * perSecond
			if b.tokens > burst {
				b.tokens = burst
			}
			b.last = r.At
		}
		if b.tokens < 1 {
			b.suppressed++
			l.suppressed.Inc()
			return
		}
		b.tokens--
		if b.suppressed > 0 {
			r.Suppressed = b.suppressed
			b.suppressed = 0
		}
	}
	l.records[levelIndex(r.Level)].Inc()
	l.pushLocked(r)
	if l.cfg.W != nil {
		b, err := json.Marshal(r)
		if err == nil {
			b = append(b, '\n')
			_, err = l.cfg.W.Write(b)
		}
		if err != nil && l.werr == nil {
			l.werr = err
		}
	}
}

// levelIndex clamps a level into the counter array (Debug is -1).
func levelIndex(l Level) int {
	if l < Debug {
		l = Debug
	}
	if l > Error {
		l = Error
	}
	return int(l - Debug)
}

// pushLocked appends to the bounded ring.
func (l *Logger) pushLocked(r Record) {
	if len(l.ring) < ringSize {
		l.ring = append(l.ring, r)
		return
	}
	l.ring[l.start] = r
	l.start++
	if l.start == len(l.ring) {
		l.start = 0
	}
}

// Recent returns the ring's records, oldest first.
func (l *Logger) Recent() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, len(l.ring))
	out = append(out, l.ring[l.start:]...)
	out = append(out, l.ring[:l.start]...)
	return out
}

// Err returns the first write error the sink reported, if any — the
// log is best-effort and never fails the caller, but a draining server
// wants to know its stream went dark.
func (l *Logger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.werr
}
