// Package cluster is the scale-out tier: a gateway that fronts N
// uwm-serve backends and makes them look like one, faster service.
//
// The paper's weird machines are slow by construction — every gate
// evaluation spends real speculative-window time — so serving heavy
// traffic means scaling out across machines and aggressively reusing
// results. Three properties of the workload shape the design:
//
//   - Jobs are deterministic given (type, payload, seed): the engine
//     reseeds each worker machine's noise stream per attempt, so the
//     same submission produces byte-identical voted JSON on any
//     backend. That makes results content-addressable — the gateway
//     hashes the canonicalized request, collapses concurrent
//     duplicates onto one backend submission (single-flight), and
//     serves repeats from a TTL+size-bounded LRU.
//   - Every backend builds byte-identical rigs, so where a job runs does
//     not change its bytes. Routing therefore needs one signal: each
//     submission goes to the routable backend with the fewest of the
//     gateway's own submissions in flight. A slow backend, or one
//     burning its SLO budget, holds its requests longer, which alone
//     steers new work away from it.
//   - Latency tails are noise-driven (a drifting machine, a
//     recalibrating worker), so sync submissions hedge: after the job
//     type's observed p95, a second attempt races on a different
//     backend, the first response wins and the loser's context is
//     canceled. A token budget caps hedges at ~10% of traffic.
//
// Failure handling is probe-plus-traffic: an active prober walks
// /healthz every interval, and live submissions that hit a
// dead, draining (503) or shedding (429, honoring its Retry-After)
// backend mark it immediately and fail over to another — so a backend
// SIGTERMed mid-burst costs zero client-visible failures.
//
// Correlation survives the extra hop: X-Request-Id / traceparent
// propagate to the chosen backend, the gateway remembers which backend
// served which job id and request id, and GET /v1/jobs/{id}/trace
// passes through to the owning backend's flight recorder — so
// `uwm-trace -from` pointed at the gateway replays a recording exactly
// as if pointed at the backend. GET /v1/cluster reports per-backend
// health, in-flight counts, hedge accounting and cache stats.
package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"uwm/internal/engine/httpapi"
	"uwm/internal/metrics"
)

// Metric series exported by the gateway.
const (
	MetricRequests        = "uwm_gateway_requests_total"
	MetricRetries         = "uwm_gateway_retries_total"
	MetricNoBackend       = "uwm_gateway_no_backend_total"
	MetricCacheHits       = "uwm_gateway_cache_hits_total"
	MetricCacheMisses     = "uwm_gateway_cache_misses_total"
	MetricCacheCollapsed  = "uwm_gateway_cache_collapsed_total"
	MetricCacheEvictions  = "uwm_gateway_cache_evictions_total"
	MetricCacheEntries    = "uwm_gateway_cache_entries"
	MetricCacheBytes      = "uwm_gateway_cache_bytes"
	MetricHedges          = "uwm_gateway_hedges_total"
	MetricBackendUp       = "uwm_gateway_backend_up"
	MetricBackendInflight = "uwm_gateway_backend_inflight"
	MetricProbeFailures   = "uwm_gateway_probe_failures_total"
)

// Config parameterizes a Gateway.
type Config struct {
	// Backends are the uwm-serve base URLs (host:port or full URL) the
	// gateway fronts. At least one is required.
	Backends []string
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// CacheEntries / CacheBytes / CacheTTL bound the result cache
	// (defaults 1024 entries, 64 MiB, 10m). CacheEntries < 0 disables
	// caching and single-flight collapsing entirely.
	CacheEntries int
	CacheBytes   int
	CacheTTL     time.Duration
	// Hedge enables hedged sync submissions.
	Hedge bool
	// HedgeBudget is the fraction of traffic that may hedge
	// (default 0.10).
	HedgeBudget float64
	// Metrics, when non-nil, receives the gateway's instruments.
	Metrics *metrics.Registry
	// Client overrides the proxy HTTP client (tests); nil uses a
	// client with no overall timeout — sync jobs legitimately run for
	// the engine's per-job deadline — relying on request contexts.
	Client *http.Client
	// ProbeClient overrides the prober's HTTP client; nil uses a 2s
	// timeout.
	ProbeClient *http.Client
}

func (c Config) normalized() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 10 * time.Minute
	}
	if c.HedgeBudget <= 0 {
		c.HedgeBudget = 0.10
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.ProbeClient == nil {
		c.ProbeClient = &http.Client{Timeout: 2 * time.Second}
	}
	return c
}

// Gateway fronts the backend pool; it is an http.Handler.
type Gateway struct {
	cfg     Config
	pool    *Pool
	cache   *resultCache
	hedge   *hedger
	handler http.Handler
	closed  atomic.Bool

	routeMu    sync.Mutex
	routes     map[string]int
	routeOrder []string

	requests  *metrics.Counter
	retries   func(reason string) *metrics.Counter
	noBackend *metrics.Counter
}

// New builds the gateway and starts its probe loop. Close releases
// the prober.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	cfg = cfg.normalized()
	g := &Gateway{
		cfg:    cfg,
		routes: make(map[string]int),
	}
	reg := cfg.Metrics
	g.pool = newPool(cfg.Backends, cfg.ProbeInterval, cfg.ProbeClient, reg)
	if cfg.CacheEntries > 0 {
		g.cache = newResultCache(cfg.CacheEntries, cfg.CacheBytes, cfg.CacheTTL)
	}
	if cfg.Hedge {
		g.hedge = newHedger(cfg.HedgeBudget)
	}
	g.registerMetrics(reg)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.submit)
	mux.HandleFunc("GET /v1/jobs", g.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		g.passthrough(w, r, r.PathValue("id"), "/v1/jobs/"+r.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		g.passthrough(w, r, r.PathValue("id"), "/v1/jobs/"+r.PathValue("id")+"/trace")
	})
	mux.HandleFunc("GET /v1/types", func(w http.ResponseWriter, r *http.Request) {
		g.passthrough(w, r, "", "/v1/types")
	})
	mux.HandleFunc("GET /v1/cluster", g.clusterStatus)
	mux.HandleFunc("GET /healthz", g.healthz)
	g.handler = httpapi.WithRequestID(mux)
	return g, nil
}

// registerMetrics exposes the gateway's instruments; a nil registry
// disables them all (nil-safe instruments throughout).
func (g *Gateway) registerMetrics(reg *metrics.Registry) {
	g.requests = reg.Counter(MetricRequests, "requests accepted by the gateway")
	g.noBackend = reg.Counter(MetricNoBackend, "submissions that found no live backend")
	g.retries = func(reason string) *metrics.Counter {
		return reg.Counter(MetricRetries, "submissions re-routed to another backend, by cause",
			metrics.L("reason", reason))
	}
	reg.CounterFunc(MetricCacheHits, "sync submissions served from the result cache",
		func() uint64 { return g.cache.stats().Hits })
	reg.CounterFunc(MetricCacheMisses, "cacheable sync submissions that missed the cache",
		func() uint64 { return g.cache.stats().Misses })
	reg.CounterFunc(MetricCacheCollapsed, "duplicate submissions collapsed onto an in-flight leader",
		func() uint64 { return g.cache.stats().Collapsed })
	reg.CounterFunc(MetricCacheEvictions, "cache entries evicted by the entry or byte bound",
		func() uint64 { return g.cache.stats().Evictions })
	reg.GaugeFunc(MetricCacheEntries, "results currently cached",
		func() float64 { return float64(g.cache.stats().Entries) })
	reg.GaugeFunc(MetricCacheBytes, "bytes currently cached",
		func() float64 { return float64(g.cache.stats().Bytes) })
	for _, outcome := range []string{"launched", "won", "lost", "suppressed"} {
		reg.CounterFunc(MetricHedges, "hedged sync submissions by outcome", func() uint64 {
			s := g.hedge.stats()
			switch outcome {
			case "launched":
				return s.Launched
			case "won":
				return s.Won
			case "lost":
				return s.Lost
			default:
				return s.Suppressed
			}
		}, metrics.L("outcome", outcome))
	}
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.handler.ServeHTTP(w, r)
}

// Close stops accepting (healthz turns 503 draining) and releases the
// probe loop. Safe to call twice.
func (g *Gateway) Close() {
	g.closed.Store(true)
	g.pool.Close()
}

// routeMemory caps how many job-id → backend routes the gateway
// remembers for pass-through GETs.
const routeMemory = 8192

// rememberRoute binds a job id (and its request id) to the backend
// that owns it, so pass-through GETs go straight to the right flight
// recorder. The table is a bounded FIFO: past routeMemory bindings the
// oldest are dropped and lookups for them fall back to asking every
// backend.
func (g *Gateway) rememberRoute(backend int, ids ...string) {
	g.routeMu.Lock()
	defer g.routeMu.Unlock()
	for _, id := range ids {
		if id == "" {
			continue
		}
		if _, ok := g.routes[id]; !ok {
			g.routeOrder = append(g.routeOrder, id)
		}
		g.routes[id] = backend
		for len(g.routeOrder) > routeMemory {
			delete(g.routes, g.routeOrder[0])
			g.routeOrder = g.routeOrder[1:]
		}
	}
}

// route resolves an id to its owning backend index.
func (g *Gateway) route(id string) (int, bool) {
	g.routeMu.Lock()
	defer g.routeMu.Unlock()
	idx, ok := g.routes[id]
	return idx, ok
}

// gatewayHealthz is the gateway's own /healthz body.
type gatewayHealthz struct {
	Status           string `json:"status"`
	Backends         int    `json:"backends"`
	RoutableBackends int    `json:"routable_backends"`
}

// healthz reports the gateway's own liveness: 503 while draining or
// when not a single backend is routable — the signal a fronting load
// balancer acts on.
func (g *Gateway) healthz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	routable := 0
	for _, b := range g.pool.Backends() {
		if b.routable(now) {
			routable++
		}
	}
	body := gatewayHealthz{
		Status:           "ok",
		Backends:         len(g.pool.Backends()),
		RoutableBackends: routable,
	}
	code := http.StatusOK
	switch {
	case g.closed.Load():
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	case routable == 0:
		body.Status = "no backends"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// BackendStatus is one backend's row in the /v1/cluster payload.
type BackendStatus struct {
	Index      int       `json:"index"`
	URL        string    `json:"url"`
	State      State     `json:"state"`
	Inflight   int64     `json:"inflight"`
	LastProbe  time.Time `json:"last_probe"`
	LastError  string    `json:"last_error,omitempty"`
	Probes     uint64    `json:"probes"`
	ProbeFails uint64    `json:"probe_failures"`
}

// ClusterStatus is the GET /v1/cluster payload.
type ClusterStatus struct {
	Backends []BackendStatus `json:"backends"`
	Cache    CacheStats      `json:"cache"`
	Hedge    HedgeStats      `json:"hedge"`
}

// Status assembles the cluster view served on GET /v1/cluster.
func (g *Gateway) Status() ClusterStatus {
	st := ClusterStatus{
		Cache: g.cache.stats(),
		Hedge: g.hedge.stats(),
	}
	for _, b := range g.pool.Backends() {
		b.mu.Lock()
		row := BackendStatus{
			Index:     b.Index,
			URL:       b.URL,
			State:     b.stateLocked(time.Now()),
			LastProbe: b.lastProbe,
			LastError: b.lastErr,
		}
		b.mu.Unlock()
		row.Inflight = b.inflight.Load()
		row.Probes = b.probes.Load()
		row.ProbeFails = b.probeFails.Load()
		st.Backends = append(st.Backends, row)
	}
	return st
}

func (g *Gateway) clusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, g.Status())
}

// writeJSON mirrors the httpapi envelope formatting so gateway bodies
// and backend bodies read identically.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error envelope, matching httpapi's.
type errorBody struct {
	Error string `json:"error"`
}
