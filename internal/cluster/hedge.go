package cluster

import (
	"sync"
	"time"

	"uwm/internal/metrics"
)

// hedgeLatencyBuckets spans the same range as the engine's job-latency
// histogram: sub-millisecond gate evaluations up to minute-scale
// hashes.
var hedgeLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// hedgeMinSamples is how many latency samples a job type needs before
// its own p95 drives the hedge delay; colder types use hedgeColdDelay.
const hedgeMinSamples = 20

// hedgeMinDelay and hedgeMaxDelay clamp the p95-derived hedge delay;
// hedgeColdDelay is used until a job type has hedgeMinSamples.
const (
	hedgeMinDelay  = 10 * time.Millisecond
	hedgeMaxDelay  = 2 * time.Second
	hedgeColdDelay = 50 * time.Millisecond
)

// hedger decides when a sync submission earns a second, racing
// attempt on another backend. Two rules bound the cost:
//
//   - the delay is the job type's observed p95 latency (clamped into
//     [hedgeMinDelay, hedgeMaxDelay]), so only the slowest ~5% of
//     requests ever hedge — the tail, which is exactly where a second
//     backend pays;
//   - a token budget caps hedges at Budget (~10%) of traffic: every
//     primary submission earns Budget tokens, a hedge spends one, so a
//     pathological regime (every request slow) degrades to budget-paced
//     hedging instead of doubling cluster load.
type hedger struct {
	mu        sync.Mutex
	lat       map[string]*metrics.Histogram
	tokens    float64
	maxTokens float64
	perReq    float64

	launched, won, lost, suppressed uint64
}

func newHedger(budget float64) *hedger {
	return &hedger{
		lat:       make(map[string]*metrics.Histogram),
		perReq:    budget,
		maxTokens: 10, // burst headroom: at most 10 back-to-back hedges
	}
}

// earn credits the budget for one primary submission.
func (h *hedger) earn() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.tokens += h.perReq
	if h.tokens > h.maxTokens {
		h.tokens = h.maxTokens
	}
	h.mu.Unlock()
}

// allow spends one token if the budget covers a hedge right now;
// a refusal is counted as suppressed.
func (h *hedger) allow() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens < 1 {
		h.suppressed++
		return false
	}
	h.tokens--
	h.launched++
	return true
}

// delay returns how long the gateway waits on the primary before
// hedging a submission of this job type.
func (h *hedger) delay(jobType string) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	hist := h.lat[jobType]
	h.mu.Unlock()
	d := hedgeColdDelay
	if hist.Count() >= hedgeMinSamples {
		d = time.Duration(hist.Quantile(0.95) * float64(time.Second))
	}
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	if d > hedgeMaxDelay {
		d = hedgeMaxDelay
	}
	return d
}

// observe feeds one completed submission's latency into the per-type
// p95 estimate.
func (h *hedger) observe(jobType string, d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	hist := h.lat[jobType]
	if hist == nil {
		hist = metrics.NewHistogram(hedgeLatencyBuckets)
		h.lat[jobType] = hist
	}
	h.mu.Unlock()
	hist.Observe(d.Seconds())
}

// recordOutcome tallies which attempt won a hedged race.
func (h *hedger) recordOutcome(hedgeWon bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if hedgeWon {
		h.won++
	} else {
		h.lost++
	}
	h.mu.Unlock()
}

// HedgeStats is the hedger's accounting, served on GET /v1/cluster
// and mirrored into the gateway metrics.
type HedgeStats struct {
	Launched   uint64 `json:"launched"`
	Won        uint64 `json:"won"`
	Lost       uint64 `json:"lost"`
	Suppressed uint64 `json:"suppressed"`
	// Budget is the current token balance; one hedge costs one token.
	Budget float64 `json:"budget"`
}

func (h *hedger) stats() HedgeStats {
	if h == nil {
		return HedgeStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HedgeStats{
		Launched:   h.launched,
		Won:        h.won,
		Lost:       h.lost,
		Suppressed: h.suppressed,
		Budget:     h.tokens,
	}
}
