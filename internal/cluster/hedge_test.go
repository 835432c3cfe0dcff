package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestHedgerBudgetPacing(t *testing.T) {
	h := newHedger(0.5)
	if h.allow() {
		t.Fatal("empty budget allowed a hedge")
	}
	if st := h.stats(); st.Suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", st.Suppressed)
	}
	h.earn()
	h.earn() // two primaries at budget 0.5 buy one hedge
	if !h.allow() {
		t.Fatal("earned budget refused a hedge")
	}
	if h.allow() {
		t.Fatal("spent budget allowed a second hedge")
	}
	for i := 0; i < 1000; i++ {
		h.earn()
	}
	if st := h.stats(); st.Budget != 10 {
		t.Fatalf("budget = %v after 1000 earns, want the cap of 10", st.Budget)
	}
}

func TestHedgerDelayClampsAndColdStart(t *testing.T) {
	h := newHedger(0.1)
	if d := h.delay("cold"); d != hedgeColdDelay {
		t.Fatalf("cold delay = %v, want %v", d, hedgeColdDelay)
	}

	// Below hedgeMinSamples the type still uses the cold delay.
	for i := 0; i < hedgeMinSamples-1; i++ {
		h.observe("warming", time.Second)
	}
	if d := h.delay("warming"); d != hedgeColdDelay {
		t.Fatalf("under-sampled delay = %v, want the %v cold delay", d, hedgeColdDelay)
	}

	// A fast type's p95 clamps up to hedgeMinDelay...
	for i := 0; i < 2*hedgeMinSamples; i++ {
		h.observe("fast", 500*time.Microsecond)
	}
	if d := h.delay("fast"); d != hedgeMinDelay {
		t.Fatalf("fast-type delay = %v, want the %v floor", d, hedgeMinDelay)
	}
	// ...and a slow type's clamps down to hedgeMaxDelay.
	for i := 0; i < 2*hedgeMinSamples; i++ {
		h.observe("slow", 10*time.Second)
	}
	if d := h.delay("slow"); d != hedgeMaxDelay {
		t.Fatalf("slow-type delay = %v, want the %v ceiling", d, hedgeMaxDelay)
	}
}

func TestHedgerNilIsInert(t *testing.T) {
	var h *hedger
	h.earn()
	h.observe("x", time.Second)
	h.recordOutcome(true)
	if h.allow() {
		t.Fatal("nil hedger allowed a hedge")
	}
	if d := h.delay("x"); d != 0 {
		t.Fatalf("nil hedger delay = %v, want 0", d)
	}
	if st := h.stats(); st != (HedgeStats{}) {
		t.Fatalf("nil hedger stats = %+v, want zero", st)
	}
}

// TestHedgeCancelsLoserAndLeaksNothing is the goroutine-hygiene check
// for hedged submissions, mirroring the SSE goroutine-release tests:
// the first attempt to reach a backend wedges until its request context
// is canceled, the racing attempt answers immediately, and after the
// winner is relayed the loser's handler must observe cancellation and
// every goroutine (launcher, proxied request, blocked handler) must
// unwind — no goroutine or response-body leaks.
func TestHedgeCancelsLoserAndLeaksNothing(t *testing.T) {
	var wedged atomic.Int32
	loserCanceled := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			_, _ = io.WriteString(w, `{"status":"ok"}`)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			if wedged.CompareAndSwap(0, 1) {
				// First attempt in: wedge until the gateway cancels us.
				// The body must be drained first — net/http only watches
				// for client disconnect (which fires this context) once
				// the request body has been consumed.
				_, _ = io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				close(loserCanceled)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"id":"job-hedge-1","status":"done"}`)
		default:
			http.NotFound(w, r)
		}
	})
	b1 := httptest.NewServer(handler)
	defer b1.Close()
	b2 := httptest.NewServer(handler)
	defer b2.Close()

	// Keep-alive connections park persistent readLoop/writeLoop
	// goroutines in the transport; disable them so the goroutine count
	// can converge back to the baseline.
	noKeepAlive := func() *http.Client {
		return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	}
	before := runtime.NumGoroutine()

	gw, err := New(Config{
		Backends:      []string{b1.URL, b2.URL},
		ProbeInterval: time.Hour, // one startup round, then silence
		CacheEntries:  -1,
		Hedge:         true,
		HedgeBudget:   1, // the first earn funds the hedge
		Client:        noKeepAlive(),
		ProbeClient:   noKeepAlive(),
	})
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1",
		strings.NewReader(`{"type":"gate","params":{"gate":"TSX_XOR","random":4}}`))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	gw.ServeHTTP(rr, req)

	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "job-hedge-1") {
		t.Fatalf("winner's body not relayed: %s", rr.Body.String())
	}
	select {
	case <-loserCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing attempt's request context was never canceled")
	}
	st := gw.hedge.stats()
	if st.Launched != 1 || st.Won+st.Lost != 1 {
		t.Fatalf("hedge stats = %+v, want exactly one decided hedge", st)
	}

	gw.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after hedged race: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHedgeSuppressedWithoutBudget pins the budget rule end to end: a
// gateway whose hedge budget cannot cover a hedge keeps waiting on the
// primary instead of launching a second attempt.
func TestHedgeSuppressedWithoutBudget(t *testing.T) {
	var posts atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			_, _ = io.WriteString(w, `{"status":"ok"}`)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			posts.Add(1)
			time.Sleep(2 * hedgeColdDelay) // slower than the hedge delay
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"id":"job-slow-1","status":"done"}`)
		default:
			http.NotFound(w, r)
		}
	})
	b1 := httptest.NewServer(handler)
	defer b1.Close()
	b2 := httptest.NewServer(handler)
	defer b2.Close()

	gw, err := New(Config{
		Backends:      []string{b1.URL, b2.URL},
		ProbeInterval: time.Hour,
		CacheEntries:  -1,
		Hedge:         true,
		HedgeBudget:   0.01, // one request earns far less than one token
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1",
		strings.NewReader(`{"type":"gate","params":{"gate":"TSX_XOR","random":4}}`))
	rr := httptest.NewRecorder()
	gw.ServeHTTP(rr, req)

	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rr.Code, rr.Body.String())
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("%d backend submissions, want 1 (hedge must be suppressed)", n)
	}
	st := gw.hedge.stats()
	if st.Launched != 0 || st.Suppressed != 1 {
		t.Fatalf("hedge stats = %+v, want 0 launched / 1 suppressed", st)
	}
}
