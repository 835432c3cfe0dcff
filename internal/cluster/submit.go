package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"uwm/internal/engine/httpapi"
)

// maxBodyBytes bounds a submission body, mirroring the backend's own
// bound so the gateway rejects at the edge what a backend would.
const maxBodyBytes = 1 << 20

// maxProxyResponseBytes bounds a proxied response body; flight
// recordings are the largest payloads and stay well under this.
const maxProxyResponseBytes = 64 << 20

// forwardedHeaders are the request headers the gateway propagates to
// the backend — the correlation ids that keep a flight recording
// reachable through the extra hop, plus content negotiation.
var forwardedHeaders = []string{"X-Request-Id", "Traceparent", "Content-Type", "Accept"}

// backendResponse is one proxied exchange's outcome.
type backendResponse struct {
	status  int
	header  http.Header
	body    []byte
	latency time.Duration
}

// forward proxies one request to a backend and buffers the response.
// Buffering (rather than streaming) is what makes hedging and caching
// possible: a response is only committed to the client after it won.
func (g *Gateway) forward(ctx context.Context, b *Backend, method, path string, body []byte, hdr http.Header) (*backendResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.URL+path, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range forwardedHeaders {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	start := time.Now()
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponseBytes))
	if err != nil {
		return nil, err
	}
	return &backendResponse{
		status:  resp.StatusCode,
		header:  resp.Header.Clone(),
		body:    rb,
		latency: time.Since(start),
	}, nil
}

// respond relays a backend (or cached) response to the client,
// carrying through the headers that matter across the hop.
func respond(w http.ResponseWriter, res *backendResponse) {
	for _, h := range []string{"Content-Type", "X-Trace-Decision", "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// triedSet is the backend-exclusion set shared between a submission's
// failover loop and its hedge: no two racing attempts of one job may
// land on the same backend, and a backend that already failed the job
// is not retried.
type triedSet struct {
	mu  sync.Mutex
	set map[int]bool
}

func newTriedSet() *triedSet { return &triedSet{set: make(map[int]bool)} }

func (t *triedSet) add(i int) {
	t.mu.Lock()
	t.set[i] = true
	t.mu.Unlock()
}

func (t *triedSet) snapshot() map[int]bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]bool, len(t.set))
	for k, v := range t.set {
		out[k] = v
	}
	return out
}

// failover runs one submission attempt with backend failover: pick the
// least-loaded backend, forward, and on a connectivity error / 503 /
// 429 mark the backend and move to the next until every backend was
// tried. The last
// shed-style response (429/503) is returned to the client when no
// backend accepts — the backends' own backpressure, passed through
// rather than masked.
func (g *Gateway) failover(ctx context.Context, path string, body []byte, hdr http.Header, tried *triedSet) (*backendResponse, *Backend, error) {
	if tried == nil {
		tried = newTriedSet()
	}
	var lastRes *backendResponse
	var lastErr error
	for range g.pool.Backends() {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		b := g.pool.Pick(tried.snapshot())
		if b == nil {
			break
		}
		tried.add(b.Index)
		res, err := g.forward(ctx, b, http.MethodPost, path, body, hdr)
		b.release()
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, err
			}
			b.markDown(err.Error())
			g.retries("unreachable").Inc()
			lastErr = err
			continue
		}
		switch res.status {
		case http.StatusServiceUnavailable:
			b.markDraining("submit 503")
			g.retries("draining").Inc()
			lastRes = res
			continue
		case http.StatusTooManyRequests:
			b.shed(parseRetryAfter(res.header.Get("Retry-After")))
			g.retries("shedding").Inc()
			lastRes = res
			continue
		}
		b.markUp()
		return res, b, nil
	}
	if lastRes != nil {
		return lastRes, nil, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no backend available")
	}
	return nil, nil, lastErr
}

// parseRetryAfter reads a Retry-After seconds value, defaulting to 1s
// for absent or unparseable hints.
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}

// raceResult is one racing attempt's outcome.
type raceResult struct {
	res    *backendResponse
	b      *Backend
	hedged bool
	err    error
}

// submitSync runs a synchronous submission with hedging: the primary
// attempt starts immediately; if it has not resolved within the job
// type's p95-derived delay and the hedge budget allows, a second
// attempt races on a backend the primary has not touched. The first
// success wins and the loser's context is canceled — its goroutine
// unwinds into the buffered channel, leaking nothing.
func (g *Gateway) submitSync(ctx context.Context, path string, body []byte, jobType string, hdr http.Header) (*backendResponse, *Backend, error) {
	g.hedge.earn()
	tried := newTriedSet()
	results := make(chan raceResult, 2)

	primCtx, cancelPrim := context.WithCancel(ctx)
	defer cancelPrim()
	hedgeCtx, cancelHedge := context.WithCancel(ctx)
	defer cancelHedge()

	launch := func(c context.Context, hedged bool) {
		res, b, err := g.failover(c, path, body, hdr, tried)
		results <- raceResult{res: res, b: b, hedged: hedged, err: err}
	}
	go launch(primCtx, false)

	outstanding := 1
	hedged := false
	var timer *time.Timer
	var timerC <-chan time.Time
	if g.hedge != nil && len(g.pool.Backends()) > 1 {
		timer = time.NewTimer(g.hedge.delay(jobType))
		defer timer.Stop()
		timerC = timer.C
	}

	var lastFail raceResult
	for {
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-timerC:
			timerC = nil
			if g.hedge.allow() {
				hedged = true
				outstanding++
				go launch(hedgeCtx, true)
			}
		case out := <-results:
			outstanding--
			won := out.err == nil && out.res != nil && out.res.status < http.StatusInternalServerError
			if !won {
				lastFail = out
				if outstanding > 0 {
					continue // the other attempt may still win
				}
				return lastFail.res, lastFail.b, lastFail.err
			}
			// Cancel the loser before answering; its forward unwinds
			// with a canceled context and parks its result in the
			// buffered channel.
			cancelPrim()
			cancelHedge()
			if hedged {
				g.hedge.recordOutcome(out.hedged)
			}
			if out.b != nil {
				g.hedge.observe(jobType, out.res.latency)
			}
			return out.res, out.b, nil
		}
	}
}

// submit is POST /v1/jobs: cache/collapse sync submissions, route to
// the least-loaded backend, hedge the tail, fail over on backend loss.
func (g *Gateway) submit(w http.ResponseWriter, r *http.Request) {
	g.requests.Inc()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading body: " + err.Error()})
		return
	}
	if len(body) > maxBodyBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "body too large"})
		return
	}
	var req httpapi.JobRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request JSON: " + err.Error()})
			return
		}
	}
	wait := req.Wait || r.URL.Query().Get("wait") == "1"
	reqID := r.Header.Get("X-Request-Id")

	if !wait {
		// Async submissions are pollable state on one specific backend:
		// no cache (the poll must see live status), no hedge (nothing
		// blocks), just least-loaded routing with failover.
		res, b, err := g.failover(r.Context(), "/v1/jobs", body, r.Header, nil)
		g.finishSubmit(w, res, b, reqID, err)
		return
	}

	path := "/v1/jobs?wait=1"
	key, cacheable := "", false
	if g.cache != nil {
		key, cacheable = cacheKey(req)
	}
	if !cacheable {
		res, b, err := g.submitSync(r.Context(), path, body, req.Type, r.Header)
		g.finishSubmit(w, res, b, reqID, err)
		return
	}

	cached, fl, leader := g.cache.begin(key, time.Now())
	switch {
	case cached != nil:
		w.Header().Set("X-Cache", "hit")
		respond(w, &backendResponse{status: http.StatusOK,
			header: http.Header{"Content-Type": []string{"application/json"}}, body: cached})
		return
	case !leader:
		// Collapsed onto an in-flight duplicate: wait for its leader.
		select {
		case <-fl.done:
		case <-r.Context().Done():
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: r.Context().Err().Error()})
			return
		}
		if fl.body != nil {
			w.Header().Set("X-Cache", "collapsed")
			respond(w, &backendResponse{status: http.StatusOK,
				header: http.Header{"Content-Type": []string{"application/json"}}, body: fl.body})
			return
		}
		// The leader failed; run our own submission instead of
		// propagating its failure.
		res, b, err := g.submitSync(r.Context(), path, body, req.Type, r.Header)
		g.finishSubmit(w, res, b, reqID, err)
		return
	}

	// Leader: submit, publish the outcome to followers, cache success.
	res, b, err := g.submitSync(r.Context(), path, body, req.Type, r.Header)
	var publish []byte
	if err == nil && res != nil && res.status == http.StatusOK && jobDone(res.body) {
		publish = res.body
	}
	g.cache.finish(key, fl, publish, time.Now())
	if publish != nil {
		w.Header().Set("X-Cache", "miss")
	}
	g.finishSubmit(w, res, b, reqID, err)
}

// jobDone reports whether a sync response body is a terminal "done"
// snapshot — the only state worth caching (a 200 with a canceled or
// failed status must not poison repeats).
func jobDone(body []byte) bool {
	var snap struct {
		Status string `json:"status"`
	}
	return json.Unmarshal(body, &snap) == nil && snap.Status == "done"
}

// finishSubmit relays a submission outcome and records the job-id →
// backend route for later pass-through GETs.
func (g *Gateway) finishSubmit(w http.ResponseWriter, res *backendResponse, b *Backend, reqID string, err error) {
	if err != nil {
		g.noBackend.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no backend available: " + err.Error()})
		return
	}
	if b != nil {
		w.Header().Set("X-UWM-Backend", strconv.Itoa(b.Index))
		var snap struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(res.body, &snap) == nil && snap.ID != "" {
			g.rememberRoute(b.Index, snap.ID, reqID)
		}
	}
	respond(w, res)
}

// passthrough proxies a GET to the backend that owns id (falling back
// to asking every backend when the route is unknown or forgotten).
// With an empty id, the first backend that answers non-404 wins —
// /v1/types is identical everywhere.
func (g *Gateway) passthrough(w http.ResponseWriter, r *http.Request, id, path string) {
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	candidates := g.pool.Backends()
	if id != "" {
		if idx, ok := g.route(id); ok && idx < len(candidates) {
			candidates = []*Backend{candidates[idx]}
		}
	}
	var lastErr error
	for _, b := range candidates {
		res, err := g.forward(r.Context(), b, http.MethodGet, path, nil, r.Header)
		if err != nil {
			lastErr = err
			continue
		}
		if res.status == http.StatusNotFound && len(candidates) > 1 {
			continue // another backend may own the id
		}
		w.Header().Set("X-UWM-Backend", strconv.Itoa(b.Index))
		respond(w, res)
		return
	}
	if lastErr != nil {
		writeJSON(w, http.StatusBadGateway, errorBody{Error: lastErr.Error()})
		return
	}
	writeJSON(w, http.StatusNotFound, errorBody{Error: "no backend knows this id"})
}

// listJobs merges GET /v1/jobs across every reachable backend into one
// array, each element as the backend rendered it.
func (g *Gateway) listJobs(w http.ResponseWriter, r *http.Request) {
	merged := []json.RawMessage{}
	for _, b := range g.pool.Backends() {
		res, err := g.forward(r.Context(), b, http.MethodGet, "/v1/jobs", nil, r.Header)
		if err != nil || res.status != http.StatusOK {
			continue
		}
		var page []json.RawMessage
		if json.Unmarshal(res.body, &page) == nil {
			merged = append(merged, page...)
		}
	}
	writeJSON(w, http.StatusOK, merged)
}
