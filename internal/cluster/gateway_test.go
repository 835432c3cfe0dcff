package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uwm/internal/engine"
	"uwm/internal/engine/httpapi"
	"uwm/internal/flightrec"
	"uwm/internal/metrics"
)

// newBackendServer starts a real one-worker uwm-serve surface — engine
// plus HTTP API plus flight recorder — for gateway tests to front.
func newBackendServer(t *testing.T) *httptest.Server {
	return newWrappedBackendServer(t, func(h http.Handler) http.Handler { return h })
}

// newWrappedBackendServer is newBackendServer with wrap around the
// backend's HTTP API.
func newWrappedBackendServer(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	fr := flightrec.New(flightrec.Config{HeadRate: 1})
	e, err := engine.New(engine.Config{Workers: 1, FlightRec: fr})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	srv := httptest.NewServer(wrap(httpapi.New(e)))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	return srv
}

func newGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	gw, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(gw.Close)
	return gw
}

// do drives one request through the gateway handler and returns the
// recorder.
func do(gw *Gateway, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, target, rd)
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	gw.ServeHTTP(rr, req)
	return rr
}

func TestGatewayCacheHitIsByteIdentical(t *testing.T) {
	backend := newBackendServer(t)
	reg := metrics.NewRegistry()
	gw := newGateway(t, Config{
		Backends:      []string{backend.URL},
		ProbeInterval: time.Hour,
		Metrics:       reg,
	})

	body := `{"type":"gate","seed":7,"params":{"gate":"TSX_XOR","random":4}}`
	first := do(gw, http.MethodPost, "/v1/jobs?wait=1", body, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first submit: %d: %s", first.Code, first.Body.String())
	}
	if xc := first.Header().Get("X-Cache"); xc != "miss" {
		t.Fatalf("first submit X-Cache = %q, want miss", xc)
	}

	second := do(gw, http.MethodPost, "/v1/jobs?wait=1", body, nil)
	if second.Code != http.StatusOK {
		t.Fatalf("second submit: %d: %s", second.Code, second.Body.String())
	}
	if xc := second.Header().Get("X-Cache"); xc != "hit" {
		t.Fatalf("second submit X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cached response is not byte-identical:\nfirst:  %s\nsecond: %s",
			first.Body.String(), second.Body.String())
	}

	// The hit is visible on the metrics surface, not just the header.
	var text bytes.Buffer
	reg.WriteText(&text)
	if !strings.Contains(text.String(), MetricCacheHits+" 1") {
		t.Fatalf("metrics lack %s 1:\n%s", MetricCacheHits, text.String())
	}

	// A different seed is a different job: it must miss.
	other := do(gw, http.MethodPost, "/v1/jobs?wait=1",
		`{"type":"gate","seed":8,"params":{"gate":"TSX_XOR","random":4}}`, nil)
	if other.Code != http.StatusOK {
		t.Fatalf("seed-8 submit: %d: %s", other.Code, other.Body.String())
	}
	if xc := other.Header().Get("X-Cache"); xc != "miss" {
		t.Fatalf("seed-8 X-Cache = %q, want miss", xc)
	}
	if st := gw.cache.stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestGatewayUnseededSubmissionsBypassCache(t *testing.T) {
	backend := newBackendServer(t)
	gw := newGateway(t, Config{Backends: []string{backend.URL}, ProbeInterval: time.Hour})

	body := `{"type":"gate","params":{"gate":"TSX_XOR","random":4}}`
	for i := 0; i < 2; i++ {
		rr := do(gw, http.MethodPost, "/v1/jobs?wait=1", body, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("submit %d: %d: %s", i, rr.Code, rr.Body.String())
		}
		if xc := rr.Header().Get("X-Cache"); xc != "" {
			t.Fatalf("unseeded submit %d touched the cache (X-Cache=%q)", i, xc)
		}
	}
	if st := gw.cache.stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("unseeded submissions reached the cache: %+v", st)
	}
}

func TestGatewayFailoverOnBackendDeath(t *testing.T) {
	b1 := newBackendServer(t)
	b2 := newBackendServer(t)
	const probeEvery = 50 * time.Millisecond
	gw := newGateway(t, Config{
		Backends:      []string{b1.URL, b2.URL},
		ProbeInterval: probeEvery,
		CacheEntries:  -1,
	})

	// Wait for the first probe round to see both backends up.
	waitFor(t, time.Second, func() bool {
		st := gw.Status()
		return st.Backends[0].State == StateUp && st.Backends[1].State == StateUp
	}, "both backends up")

	// Kill one backend, then burst submissions: every one must succeed
	// via failover to the survivor.
	b1.Close()
	for seed := 1; seed <= 6; seed++ {
		body := fmt.Sprintf(`{"type":"gate","seed":%d,"params":{"gate":"TSX_XOR","random":4}}`, seed)
		rr := do(gw, http.MethodPost, "/v1/jobs?wait=1", body, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("seed %d after backend death: %d: %s", seed, rr.Code, rr.Body.String())
		}
	}

	// The cluster view must reflect the death within a probe interval
	// (live traffic already marked it; the probe would confirm anyway).
	waitFor(t, 2*probeEvery, func() bool {
		rr := do(gw, http.MethodGet, "/v1/cluster", "", nil)
		var st ClusterStatus
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &st) != nil {
			return false
		}
		return st.Backends[0].State == StateDown && st.Backends[1].State == StateUp
	}, "dead backend visible in /v1/cluster")
}

// TestGatewaySpreadsConcurrentSubmissions sends two sync submissions at
// once through a gateway over two one-worker backends. Each backend
// holds its submission until both have arrived, so the first is still in
// flight when the second is routed: they must land on different
// backends.
func TestGatewaySpreadsConcurrentSubmissions(t *testing.T) {
	var arrivals sync.WaitGroup
	arrivals.Add(2)
	both := make(chan struct{})
	go func() { arrivals.Wait(); close(both) }()
	hold := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				arrivals.Done()
				select {
				case <-both:
				case <-time.After(5 * time.Second):
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	b1 := newWrappedBackendServer(t, hold)
	b2 := newWrappedBackendServer(t, hold)
	gw := newGateway(t, Config{
		Backends:      []string{b1.URL, b2.URL},
		ProbeInterval: time.Hour,
		CacheEntries:  -1,
	})

	var wg sync.WaitGroup
	got := make([]*httptest.ResponseRecorder, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"type":"gate","seed":%d,"params":{"gate":"TSX_XOR","random":4}}`, i+1)
			got[i] = do(gw, http.MethodPost, "/v1/jobs?wait=1", body, nil)
		}()
	}
	wg.Wait()
	for i, rr := range got {
		if rr.Code != http.StatusOK {
			t.Fatalf("submission %d: %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	a, b := got[0].Header().Get("X-UWM-Backend"), got[1].Header().Get("X-UWM-Backend")
	if a == "" || a == b {
		t.Fatalf("concurrent submissions went to backends %q and %q, want two different ones", a, b)
	}
}

// TestGatewayNeverAsksForSLO pins that routing reads nothing but
// /healthz and the gateway's own in-flight counts: over several probe
// rounds and submissions no request reaches a backend's /v1/slo.
func TestGatewayNeverAsksForSLO(t *testing.T) {
	var healthz, slo atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			healthz.Add(1)
			_, _ = io.WriteString(w, `{"status":"ok"}`)
		case r.URL.Path == "/v1/slo":
			slo.Add(1)
			_, _ = io.WriteString(w, `{"slos":[]}`)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"id":"job-stub-1","status":"done"}`)
		default:
			http.NotFound(w, r)
		}
	})
	b1 := httptest.NewServer(handler)
	defer b1.Close()
	b2 := httptest.NewServer(handler)
	defer b2.Close()
	gw := newGateway(t, Config{
		Backends:      []string{b1.URL, b2.URL},
		ProbeInterval: 10 * time.Millisecond,
	})
	for seed := 1; seed <= 4; seed++ {
		body := fmt.Sprintf(`{"type":"gate","seed":%d,"params":{"gate":"TSX_XOR","random":4}}`, seed)
		if rr := do(gw, http.MethodPost, "/v1/jobs?wait=1", body, nil); rr.Code != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, rr.Code, rr.Body.String())
		}
	}
	waitFor(t, 2*time.Second, func() bool { return healthz.Load() >= 6 }, "three probe rounds")
	if n := slo.Load(); n != 0 {
		t.Fatalf("gateway sent %d requests to /v1/slo, want 0", n)
	}
}

func TestGatewayTraceContinuity(t *testing.T) {
	backend := newBackendServer(t)
	gw := newGateway(t, Config{Backends: []string{backend.URL}, ProbeInterval: time.Hour})

	const reqID = "gw-trace-1"
	sub := do(gw, http.MethodPost, "/v1/jobs?wait=1",
		`{"type":"gate","seed":3,"params":{"gate":"TSX_XOR","random":4}}`,
		map[string]string{"X-Request-Id": reqID})
	if sub.Code != http.StatusOK {
		t.Fatalf("submit: %d: %s", sub.Code, sub.Body.String())
	}
	var snap struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(sub.Body.Bytes(), &snap); err != nil || snap.ID == "" {
		t.Fatalf("submit body carries no job id: %v: %s", err, sub.Body.String())
	}

	// The job snapshot passes through to the owning backend.
	if rr := do(gw, http.MethodGet, "/v1/jobs/"+snap.ID, "", nil); rr.Code != http.StatusOK {
		t.Fatalf("snapshot pass-through: %d: %s", rr.Code, rr.Body.String())
	}

	// The flight recording is reachable via the gateway by job id...
	byID := do(gw, http.MethodGet, "/v1/jobs/"+snap.ID+"/trace?format=jsonl", "", nil)
	if byID.Code != http.StatusOK {
		t.Fatalf("trace by job id: %d: %s", byID.Code, byID.Body.String())
	}
	if byID.Header().Get("X-Trace-Decision") == "" {
		t.Error("trace pass-through dropped X-Trace-Decision")
	}
	if byID.Header().Get("X-UWM-Backend") == "" {
		t.Error("trace pass-through dropped X-UWM-Backend")
	}
	lines := strings.Split(strings.TrimRight(byID.Body.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("trace body is empty")
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v (%q)", i, err, line)
		}
	}

	// ...and by the request id the client correlated it under — the
	// `uwm-trace -from <gateway>` path.
	byReq := do(gw, http.MethodGet, "/v1/jobs/"+reqID+"/trace?format=jsonl", "", nil)
	if byReq.Code != http.StatusOK {
		t.Fatalf("trace by request id: %d: %s", byReq.Code, byReq.Body.String())
	}
	if byReq.Body.String() != byID.Body.String() {
		t.Error("request-id trace differs from job-id trace through the gateway")
	}
}

func TestGatewayAsyncSubmitAndPoll(t *testing.T) {
	backend := newBackendServer(t)
	gw := newGateway(t, Config{Backends: []string{backend.URL}, ProbeInterval: time.Hour})

	sub := do(gw, http.MethodPost, "/v1/jobs",
		`{"type":"covert","params":{"message":"through the gateway"}}`, nil)
	if sub.Code != http.StatusAccepted {
		t.Fatalf("async submit: %d, want 202: %s", sub.Code, sub.Body.String())
	}
	var snap struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(sub.Body.Bytes(), &snap); err != nil || snap.ID == "" {
		t.Fatalf("202 body carries no id: %v: %s", err, sub.Body.String())
	}

	waitFor(t, 60*time.Second, func() bool {
		rr := do(gw, http.MethodGet, "/v1/jobs/"+snap.ID, "", nil)
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &snap) != nil {
			return false
		}
		return snap.Status == "done"
	}, "async job done via gateway poll")

	// The merged job listing includes it.
	list := do(gw, http.MethodGet, "/v1/jobs", "", nil)
	if list.Code != http.StatusOK || !strings.Contains(list.Body.String(), snap.ID) {
		t.Fatalf("merged listing lacks %s: %d: %s", snap.ID, list.Code, list.Body.String())
	}
}

func TestGatewayHealthz(t *testing.T) {
	backend := newBackendServer(t)
	gw := newGateway(t, Config{Backends: []string{backend.URL}, ProbeInterval: time.Hour})
	waitFor(t, time.Second, func() bool {
		return gw.Status().Backends[0].State == StateUp
	}, "backend up")

	rr := do(gw, http.MethodGet, "/healthz", "", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: %d: %s", rr.Code, rr.Body.String())
	}
	gw.Close()
	rr = do(gw, http.MethodGet, "/healthz", "", nil)
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "draining") {
		t.Fatalf("healthz after Close: %d: %s, want 503 draining", rr.Code, rr.Body.String())
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, within time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
