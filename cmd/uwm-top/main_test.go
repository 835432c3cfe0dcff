package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"uwm/internal/health"
	"uwm/internal/trace"
)

// fakeServe builds a test server that answers the three endpoints
// uwm-top polls, with one worker whose monitor digested a real-shaped
// read stream.
func fakeServe(t *testing.T) *httptest.Server {
	t.Helper()
	mon := health.NewMonitor()
	mon.Emit(trace.Event{Kind: trace.KindCalibration, Value: 129, Text: "hit=36 miss=222 n=1"})
	for i := 0; i < 40; i++ {
		delta := uint64(36)
		if i%2 == 0 {
			delta = 222
		}
		mon.Emit(trace.Event{Kind: trace.KindTimedRead, Value: delta,
			Text: fmt.Sprintf("gate=TSX_AND out=%d bit=%d", i%2, i%2)})
	}
	mon.ObserveOutcome("TSX_AND", 4, 4)

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","workers":1,"healthy_workers":1,"drifting_workers":0,
			"queue_depth":0,"queue_capacity":64,"inflight":0,"submitted":4}`)
	})
	mux.HandleFunc("/v1/health/detail", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap, err := healthJSON(mon)
		if err != nil {
			t.Errorf("marshaling snapshot: %v", err)
		}
		fmt.Fprintf(w, `[{"worker":0,"health":%s}]`, snap)
	})
	mux.HandleFunc("/v1/slo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"slos":[{"name":"gate-accuracy","kind":"gate_accuracy",
			"objective":0.9,"budget_consumed":0.42,"budget_remaining":0.58}]}`)
	})
	mux.HandleFunc("/v1/alerts", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"alerts":[{"slo":"gate-accuracy","policy":"fast","severity":"page",
			"state":"firing","burn_short":20,"burn_long":15,"burn_rate_threshold":14.4,
			"trace_ids":["job-00000007"]}],"firing":1}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "# TYPE uwm_engine_jobs_total counter\n"+
			"uwm_engine_jobs_total{status=\"done\"} 3\n"+
			"uwm_engine_jobs_total{status=\"failed\"} 1\n"+
			"# TYPE uwm_engine_retries_total counter\n"+
			"uwm_engine_retries_total{type=\"gate\",reason=\"error\"} 2\n"+
			"# TYPE uwm_engine_queue_depth gauge\n"+
			"uwm_engine_queue_depth 0\n")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func healthJSON(mon *health.Monitor) (string, error) {
	b, err := json.Marshal(mon.Snapshot())
	return string(b), err
}

func TestOnceSnapshot(t *testing.T) {
	srv := fakeServe(t)
	var out strings.Builder
	if code := realMain([]string{"-addr", srv.URL, "-once"}, &out, nil); code != 0 {
		t.Fatalf("realMain -once = %d, want 0", code)
	}
	got := out.String()
	for _, want := range []string{
		"pool: ok",
		"workers=1 healthy=1",
		"jobs=4",    // 3 done + 1 failed, summed across labels
		"retries=2", // reason labels summed
		"worker 0",
		"TSX_AND",
		"slo: 1 objective(s), 1 alert(s) firing",
		"budget used   42.0%",
		"ALERT gate-accuracy/fast [page] burn 20.0/15.0 over threshold 14.4",
		"job-00000007",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("snapshot missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\x1b[") {
		t.Error("-once output contains ANSI escapes")
	}
	if strings.Contains(got, "queue_depth=") {
		t.Error("gauge leaked into the counter totals line")
	}
}

// fakeGateway builds a test server shaped like uwm-gateway: no worker
// detail endpoint, but a /v1/cluster backends view.
func fakeGateway(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","backends":2,"routable_backends":1}`)
	})
	mux.HandleFunc("/v1/cluster", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{
			"backends":[
				{"index":0,"url":"http://127.0.0.1:8081","state":"up","inflight":2},
				{"index":1,"url":"http://127.0.0.1:8082","state":"down","inflight":0,
				 "last_error":"connection refused"}
			],
			"cache":{"entries":3,"hits":6,"misses":2,"collapsed":1,"hit_ratio":0.75},
			"hedge":{"launched":4,"won":1,"lost":3,"suppressed":2,"budget":1.5}}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "# TYPE uwm_gateway_requests_total counter\nuwm_gateway_requests_total 8\n")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestGatewaySnapshot points the console at a gateway-shaped server:
// the per-worker panels (no /v1/health/detail there) must give way to
// the backends panel without failing the frame.
func TestGatewaySnapshot(t *testing.T) {
	srv := fakeGateway(t)
	var out strings.Builder
	if code := realMain([]string{"-addr", srv.URL, "-once"}, &out, nil); code != 0 {
		t.Fatalf("realMain -once = %d, want 0:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"cluster: 1/2 backend(s) routable",
		"cache hit 75% (6 hit / 2 miss / 1 collapsed)",
		"hedges 4 launched 1 won 2 suppressed",
		"[0] http://127.0.0.1:8081",
		"inflight=2",
		"[1] http://127.0.0.1:8082",
		"err=connection refused",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("gateway snapshot missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "-- worker") {
		t.Errorf("worker panels rendered against a gateway:\n%s", got)
	}
	if strings.Contains(got, "weight=") || strings.Contains(got, "ewma=") {
		t.Errorf("backends panel still shows routing weights:\n%s", got)
	}
}

// syncBuf lets the stale-banner test read the console's output while
// realMain's poll loop is still writing it.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func waitContains(t *testing.T, out *syncBuf, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("output never contained %q:\n%s", want, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStaleBannerOnFailedPoll kills the polled server mid-session: the
// console must keep running, banner the failure with the last-success
// timestamp, keep the last good frame on screen, and still exit
// cleanly on SIGTERM.
func TestStaleBannerOnFailedPoll(t *testing.T) {
	srv := fakeServe(t)
	sigs := make(chan os.Signal, 1)
	out := &syncBuf{}
	done := make(chan int, 1)
	go func() {
		done <- realMain([]string{"-addr", srv.URL, "-interval", "20ms"}, out, sigs)
	}()
	waitContains(t, out, "pool: ok")

	srv.Close()
	waitContains(t, out, "POLL FAILED")
	waitContains(t, out, "STALE data from last success at")
	// The banner frames still carry the last good snapshot.
	waitContains(t, out, "worker 0")

	sigs <- syscall.SIGTERM
	if code := <-done; code != 0 {
		t.Fatalf("exit code %d after drain, want 0", code)
	}
}

func TestUnreachableServer(t *testing.T) {
	var out strings.Builder
	if code := realMain([]string{"-addr", "http://127.0.0.1:1", "-once"}, &out, nil); code != 1 {
		t.Errorf("unreachable server: exit %d, want 1", code)
	}
}

func TestUsageErrors(t *testing.T) {
	var out strings.Builder
	if code := realMain([]string{"-bogus"}, &out, nil); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := realMain([]string{"stray-arg"}, &out, nil); code != 2 {
		t.Errorf("stray arg: exit %d, want 2", code)
	}
}

func TestSplitSample(t *testing.T) {
	for _, tc := range []struct {
		line, name, value string
		ok                bool
	}{
		{`uwm_engine_jobs_total{status="done"} 3`, "uwm_engine_jobs_total", "3", true},
		{"uwm_engine_queue_depth 0", "uwm_engine_queue_depth", "0", true},
		{"nospace", "", "", false},
	} {
		name, value, ok := splitSample(tc.line)
		if name != tc.name || value != tc.value || ok != tc.ok {
			t.Errorf("splitSample(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.line, name, value, ok, tc.name, tc.value, tc.ok)
		}
	}
}
