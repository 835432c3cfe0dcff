package cluster

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uwm/internal/metrics"
)

// State is a backend's routing eligibility, as decided by the last
// probe or by live traffic (a failed submission marks a backend before
// the prober confirms it).
type State string

const (
	// StateUnknown is the pre-first-probe state. The router treats it
	// as routable so a freshly started gateway does not black-hole
	// traffic while the first probe round is still in flight.
	StateUnknown State = "unknown"
	// StateUp means the last probe or live request succeeded.
	StateUp State = "up"
	// StateDraining means /healthz answered 503: the backend is
	// shutting down, or a quorum of its workers is unhealthy. Either
	// way it must not receive new jobs until a probe sees it recover.
	StateDraining State = "draining"
	// StateShedding means the backend recently answered 429; the
	// router skips it until its Retry-After hint has elapsed.
	StateShedding State = "shedding"
	// StateDown means the backend is unreachable.
	StateDown State = "down"
)

// Backend is one uwm-serve instance the gateway fronts.
type Backend struct {
	// URL is the backend's base URL (scheme://host:port, no trailing
	// slash).
	URL string
	// Index is the backend's stable position in the pool; it labels
	// the backend's metrics and names it in /v1/cluster.
	Index int

	mu        sync.Mutex
	state     State
	lastErr   string
	lastProbe time.Time
	shedUntil time.Time

	// inflight counts this gateway's submissions now proxied to the
	// backend: Pool.Pick claims a slot, the submitter releases it.
	inflight   atomic.Int64
	probes     atomic.Uint64
	probeFails atomic.Uint64
}

// State returns the backend's current routing state, resolving an
// elapsed shedding window back to its underlying state.
func (b *Backend) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked(time.Now())
}

func (b *Backend) stateLocked(now time.Time) State {
	if b.state == StateUp && now.Before(b.shedUntil) {
		return StateShedding
	}
	return b.state
}

// routable reports whether the router may pick this backend: up (and
// not inside a shedding window) or not yet probed.
func (b *Backend) routable(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stateLocked(now)
	return st == StateUp || st == StateUnknown
}

// markUp records a live success (probes also call it).
func (b *Backend) markUp() {
	b.mu.Lock()
	b.state = StateUp
	b.lastErr = ""
	b.mu.Unlock()
}

// markDown records an unreachable backend, from a probe or a failed
// live request — live traffic must not wait a probe interval to stop
// hitting a dead node.
func (b *Backend) markDown(err string) {
	b.mu.Lock()
	b.state = StateDown
	b.lastErr = err
	b.mu.Unlock()
}

// markDraining records a 503 — the backend refuses new jobs.
func (b *Backend) markDraining(reason string) {
	b.mu.Lock()
	b.state = StateDraining
	b.lastErr = reason
	b.mu.Unlock()
}

// shed opens a shedding window after a 429: the router skips the
// backend until the backend's own Retry-After hint has elapsed.
func (b *Backend) shed(retryAfter time.Duration) {
	b.mu.Lock()
	until := time.Now().Add(retryAfter)
	if until.After(b.shedUntil) {
		b.shedUntil = until
	}
	b.mu.Unlock()
}

// Pool is the probed backend set plus the routing policy over it.
type Pool struct {
	backends []*Backend
	pickMu   sync.Mutex // makes Pick's choice and its in-flight claim one step
	interval time.Duration
	client   *http.Client

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	probeFailures *metrics.Counter
}

// newPool builds the pool and starts the probe loop. URLs are
// normalized to scheme://host:port form (a bare host:port gets
// http://).
func newPool(urls []string, interval time.Duration, client *http.Client, reg *metrics.Registry) *Pool {
	p := &Pool{
		interval: interval,
		client:   client,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i, u := range urls {
		b := &Backend{URL: normalizeURL(u), Index: i, state: StateUnknown}
		p.backends = append(p.backends, b)
		label := metrics.L("backend", strconv.Itoa(i))
		reg.GaugeFunc(MetricBackendUp, "1 while the backend is routable", func() float64 {
			if b.routable(time.Now()) {
				return 1
			}
			return 0
		}, label)
		reg.GaugeFunc(MetricBackendInflight, "submissions currently proxied to the backend",
			func() float64 { return float64(b.inflight.Load()) }, label)
	}
	p.probeFailures = reg.Counter(MetricProbeFailures, "health probes that found a backend unreachable")
	go p.run()
	return p
}

// normalizeURL accepts host:port or a full URL and returns
// scheme://host:port without a trailing slash.
func normalizeURL(u string) string {
	u = strings.TrimRight(u, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// Backends returns the pool's members in index order.
func (p *Pool) Backends() []*Backend { return p.backends }

// run is the probe loop: one immediate round, then one per interval,
// until Close.
func (p *Pool) run() {
	defer close(p.done)
	p.probeAll()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

// Close stops the probe loop and waits for it to exit.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// probeAll probes every backend concurrently; a slow backend must not
// delay the others' state refresh.
func (p *Pool) probeAll() {
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			p.probe(b)
		}(b)
	}
	wg.Wait()
}

// healthzProbe mirrors the httpapi healthz body fields the prober
// reads.
type healthzProbe struct {
	Status string `json:"status"`
}

// probe refreshes one backend's routing state from its /healthz.
func (p *Pool) probe(b *Backend) {
	b.probes.Add(1)
	b.mu.Lock()
	b.lastProbe = time.Now()
	b.mu.Unlock()

	resp, err := p.client.Get(b.URL + "/healthz")
	if err != nil {
		b.probeFails.Add(1)
		p.probeFailures.Inc()
		b.markDown(err.Error())
		return
	}
	var hz healthzProbe
	decodeErr := json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		b.markUp()
	case resp.StatusCode == http.StatusServiceUnavailable:
		reason := hz.Status
		if decodeErr != nil || reason == "" {
			reason = "healthz 503"
		}
		b.markDraining(reason)
	default:
		b.probeFails.Add(1)
		p.probeFailures.Inc()
		b.markDown("healthz status " + strconv.Itoa(resp.StatusCode))
	}
}

// Pick claims the routable, non-excluded backend with the fewest
// submissions in flight from this gateway; ties go to the lowest index.
// A slow or overloaded backend holds its requests longer, so its count
// alone steers new work away from it. The choice and the in-flight
// increment happen under one lock, so concurrent submissions spread
// over idle backends instead of all taking the same one. The caller
// releases the claim with release when its request finishes.
//
// When no routable backend remains, Pick falls back to any
// non-excluded backend regardless of state: trying a draining node and
// surfacing its 503 beats refusing on possibly-stale probe data.
func (p *Pool) Pick(excluded map[int]bool) *Backend {
	now := time.Now()
	p.pickMu.Lock()
	defer p.pickMu.Unlock()
	b := p.leastLoaded(excluded, func(b *Backend) bool { return b.routable(now) })
	if b == nil {
		b = p.leastLoaded(excluded, func(*Backend) bool { return true })
	}
	if b != nil {
		b.inflight.Add(1)
	}
	return b
}

func (p *Pool) leastLoaded(excluded map[int]bool, eligible func(*Backend) bool) *Backend {
	var best *Backend
	for _, b := range p.backends {
		if excluded[b.Index] || !eligible(b) {
			continue
		}
		if best == nil || b.inflight.Load() < best.inflight.Load() {
			best = b
		}
	}
	return best
}

// release returns the in-flight slot a Pick claimed.
func (b *Backend) release() { b.inflight.Add(-1) }
