// Package httpapi exposes an engine.Engine as a small JSON-over-HTTP
// job service. The surface is deliberately tiny:
//
//	POST /v1/jobs            submit a job; ?wait=1 (or "wait": true) blocks
//	                         for the result, otherwise 202 + a pollable id
//	GET  /v1/jobs            list retained jobs
//	GET  /v1/jobs/{id}       poll one job
//	GET  /v1/jobs/{id}/trace download the job's flight-recording
//	                         (?format=jsonl|chrome; job or request id)
//	GET  /v1/traces          flight-recorder index: every kept trace's
//	                         sampling decision and reason, newest first
//	GET  /v1/traces/stream   SSE live tail of sampling decisions
//	GET  /v1/types           registered job types
//	GET  /v1/health/detail   per-worker gate-health snapshots
//	GET  /v1/slo             SLO status: objectives, budget consumed,
//	                         per-policy burn rates
//	GET  /v1/alerts          flat alert view, firing count, correlated
//	                         kept-trace ids on firing rows
//	GET  /v1/alerts/stream   SSE live tail of alert fire/resolve
//	                         transitions
//	GET  /v1/logs            the structured event log's in-memory ring
//	GET  /healthz            pool stats; 503 once the engine is draining
//	                         or a quorum of workers is unhealthy
//
// Backpressure maps directly: a full engine queue turns into HTTP 429
// with a Retry-After hint, so load shedding happens at the edge
// instead of by queue growth.
//
// Every response carries an X-Request-Id header: the caller's, when the
// request had one (a W3C traceparent's trace-id serves as fallback), or
// a freshly generated id. Submissions propagate the id into the job
// spec, where the engine attaches it to the job's trace spans — one id
// correlates the HTTP exchange, the stored job snapshot and the
// recorded trace, and the flight-recorder endpoints resolve it
// interchangeably with the job id.
package httpapi

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uwm/internal/engine"
	"uwm/internal/flightrec"
	"uwm/internal/trace"
)

// maxBodyBytes bounds a submission body; params are small JSON
// objects, not payload blobs.
const maxBodyBytes = 1 << 20

// requestIDHeader is the correlation-id header, accepted inbound and
// echoed on every response.
const requestIDHeader = "X-Request-Id"

// maxRequestIDLen truncates absurd caller-supplied ids so they stay
// usable as span annotations and log fields.
const maxRequestIDLen = 128

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	// Type selects a registered job type (see GET /v1/types).
	Type string `json:"type"`
	// Params is the handler-specific parameter object.
	Params json.RawMessage `json:"params,omitempty"`
	// TimeoutMS bounds the job's execution in milliseconds; zero uses
	// the engine default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Seed, Attempts and Vote override the engine's derived sub-seed
	// and retry policy per job (zero keeps the defaults).
	Seed     uint64 `json:"seed,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Vote     int    `json:"vote,omitempty"`
	// Wait makes the submission synchronous: the response carries the
	// terminal snapshot instead of a pollable 202.
	Wait bool `json:"wait,omitempty"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// healthzBody is the /healthz payload: the pool stats plus the verdict
// the status code encodes, spelled out for humans reading the body.
type healthzBody struct {
	engine.Stats
	Status string `json:"status"`
}

// New returns the service's http.Handler.
func New(e *engine.Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submit(e, w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := e.Jobs()
		snaps := make([]engine.Snapshot, len(jobs))
		for i, j := range jobs {
			snaps[i] = j.Snapshot()
		}
		writeJSON(w, http.StatusOK, snaps)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.Get(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		jobTrace(e, w, r)
	})
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		tracesIndex(e, w, r)
	})
	mux.HandleFunc("GET /v1/traces/stream", func(w http.ResponseWriter, r *http.Request) {
		tracesStream(e, w, r)
	})
	mux.HandleFunc("GET /v1/types", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, engine.JobTypes())
	})
	mux.HandleFunc("GET /v1/health/detail", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, e.Health())
	})
	mux.HandleFunc("GET /v1/slo", func(w http.ResponseWriter, r *http.Request) {
		sloStatus(e, w, r)
	})
	mux.HandleFunc("GET /v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		alerts(e, w, r)
	})
	mux.HandleFunc("GET /v1/alerts/stream", func(w http.ResponseWriter, r *http.Request) {
		alertsStream(e, w, r)
	})
	mux.HandleFunc("GET /v1/logs", func(w http.ResponseWriter, r *http.Request) {
		logs(e, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		st := e.Stats()
		code := http.StatusOK
		status := "ok"
		switch {
		case st.Draining:
			code = http.StatusServiceUnavailable
			status = "draining"
		case quorumUnhealthy(st):
			code = http.StatusServiceUnavailable
			status = "degraded"
		}
		writeJSON(w, code, healthzBody{Stats: st, Status: status})
	})
	return WithRequestID(mux)
}

// quorumUnhealthy reports whether so many workers are unhealthy that
// the pool can no longer be trusted: more than half the workers fail
// their health check. A lone drifting worker self-heals at its next job
// boundary and should not flip the service-wide probe.
func quorumUnhealthy(st engine.Stats) bool {
	unhealthy := st.Workers - st.HealthyWorkers
	return st.Workers > 0 && 2*unhealthy > st.Workers
}

// jobTrace serves a kept flight-recording by job or request id, as
// JSONL (the uwm-trace input format, default) or as a Chrome
// trace_event document for chrome://tracing / Perfetto.
func jobTrace(e *engine.Engine, w http.ResponseWriter, r *http.Request) {
	fr := e.FlightRecorder()
	if fr == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "flight recorder disabled (engine started without one)"})
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "jsonl", "chrome":
	default:
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("unknown format %q (want jsonl or chrome)", format)})
		return
	}
	kt, ok := fr.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "no kept trace for this id (not sampled, evicted, or unknown)"})
		return
	}
	w.Header().Set("X-Trace-Decision", kt.Entry.Reason)
	if format == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		s := trace.NewChromeSink(w)
		for _, ev := range kt.Events {
			s.Emit(ev)
		}
		_ = s.Close() // the response writer is not a Closer; this only flushes
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = trace.EncodeJSONL(w, kt.Events)
}

// tracesIndex serves the flight recorder's index, newest first.
func tracesIndex(e *engine.Engine, w http.ResponseWriter, _ *http.Request) {
	fr := e.FlightRecorder()
	if fr == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "flight recorder disabled (engine started without one)"})
		return
	}
	idx := fr.Index()
	if idx == nil {
		idx = []flightrec.Entry{}
	}
	writeJSON(w, http.StatusOK, idx)
}

// tracesStream is the SSE live tail: every sampling decision — kept or
// dropped — streams to the client as one `decision` event. The
// subscription is released when the client disconnects.
func tracesStream(e *engine.Engine, w http.ResponseWriter, r *http.Request) {
	fr := e.FlightRecorder()
	if fr == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "flight recorder disabled (engine started without one)"})
		return
	}
	streamSSE(w, r, "uwm flight-recorder live tail", "decision", fr.Subscribe)
}

// streamSSE serves a subscription as server-sent events: a banner
// comment, then one event per value received, until the client
// disconnects or the channel closes. subscribe runs only once the
// connection is known to stream, and its release func runs on return.
func streamSSE[T any](w http.ResponseWriter, r *http.Request, banner, event string, subscribe func() (<-chan T, func())) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError,
			errorBody{Error: "streaming unsupported by this connection"})
		return
	}
	ch, release := subscribe()
	defer release()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": %s\n\n", banner)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case v, open := <-ch:
			if !open {
				return
			}
			b, err := json.Marshal(v)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
			fl.Flush()
		}
	}
}

// WithRequestID ensures every request carries a correlation id and
// every response echoes it. Inbound X-Request-Id wins; without one, the
// trace-id of a W3C traceparent header is adopted so jobs submitted by
// an instrumented client correlate under the caller's distributed
// trace; otherwise a fresh id is generated. Exported so the cluster
// gateway assigns ids by the same rules — an id minted at either tier
// resolves identically at both.
func WithRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if len(id) > maxRequestIDLen {
			id = id[:maxRequestIDLen]
		}
		if id == "" {
			if tid, ok := parseTraceparent(r.Header.Get("traceparent")); ok {
				id = tid
			}
		}
		if id == "" {
			id = newRequestID()
		}
		r.Header.Set(requestIDHeader, id) // downstream handlers read it back
		w.Header().Set(requestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

// parseTraceparent extracts the trace-id from a W3C traceparent header
// ("version-traceid-parentid-flags", e.g. "00-4bf9…-00f0…-01"). An
// all-zero trace-id is invalid per the spec and rejected.
func parseTraceparent(h string) (string, bool) {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", false
	}
	zero := true
	for _, c := range parts[1] {
		switch {
		case c >= '0' && c <= '9':
			if c != '0' {
				zero = false
			}
		case c >= 'a' && c <= 'f':
			zero = false
		default:
			return "", false
		}
	}
	if zero {
		return "", false
	}
	return parts[1], true
}

// newRequestID generates a 16-hex-char random id. Randomness failures
// degrade to a fixed id rather than failing the request: correlation is
// best-effort observability, not a security boundary.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-unavailable"
	}
	return hex.EncodeToString(b[:])
}

func submit(e *engine.Engine, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading body: " + err.Error()})
		return
	}
	if len(body) > maxBodyBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "body too large"})
		return
	}
	var req JobRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request JSON: " + err.Error()})
			return
		}
	}

	job, err := e.Submit(engine.JobSpec{
		Type:      req.Type,
		Params:    req.Params,
		Timeout:   time.Duration(req.TimeoutMS) * time.Millisecond,
		Seed:      req.Seed,
		Attempts:  req.Attempts,
		Vote:      req.Vote,
		RequestID: r.Header.Get(requestIDHeader),
	})
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterFrom(e.Stats().QueueDepth, e.DrainRate())))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, engine.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	wait := req.Wait || r.URL.Query().Get("wait") == "1"
	if !wait {
		writeJSON(w, http.StatusAccepted, job.Snapshot())
		return
	}
	// Synchronous submission: the job keeps its own deadline; the
	// request context only bounds how long this client waits for it.
	select {
	case <-job.Done():
		writeJSON(w, http.StatusOK, job.Snapshot())
	case <-r.Context().Done():
		// The job still runs; hand back the poll handle.
		writeJSON(w, http.StatusAccepted, job.Snapshot())
	}
}

// retryAfterFrom derives the 429 Retry-After hint from live queue
// state: the seconds the current backlog needs to drain at the
// recently observed completion rate, clamped into [1, 30]. A pool
// with no recent completions (cold start, or every worker wedged on
// long jobs) reports 1 — an optimistic early retry beats advising a
// long wait on no evidence. The clamp's ceiling keeps a deep queue
// from telling clients (and the cluster gateway's shedding-aware
// router) to go away for minutes when the estimate is necessarily
// rough.
func retryAfterFrom(queueDepth int, drainRate float64) int {
	if drainRate <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(queueDepth+1) / drainRate))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already on the wire; an encode error here can
	// only mean the client went away.
	_ = enc.Encode(v)
}
