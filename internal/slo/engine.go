package slo

import (
	"encoding/json"
	"sync"
	"time"

	"uwm/internal/evlog"
	"uwm/internal/metrics"
)

// Metric series exported by the engine.
const (
	MetricObservations = "uwm_slo_observations_total"
	MetricBudget       = "uwm_slo_budget_consumed"
	MetricBurn         = "uwm_slo_burn_rate"
	MetricFiring       = "uwm_slo_alert_firing"
	MetricTransitions  = "uwm_slo_alert_transitions_total"
)

// Config assembles an Engine.
type Config struct {
	// SLOs are the definitions to enforce; nil selects DefaultSLOs.
	SLOs []Definition
	// Log receives one Unlimited record per observation and per alert
	// transition — the replay substrate. Nil disables journaling (and
	// with it, offline replay).
	Log *evlog.Logger
	// Pinner, when non-nil, pins a firing alert's correlated traces
	// against flight-recorder eviction until the alert resolves.
	Pinner TracePinner
	// Clock stamps observations that arrive unstamped; nil selects
	// time.Now. Tests inject a virtual clock; replay never consults it.
	Clock func() time.Time
	// Metrics, when non-nil, receives the engine's instruments.
	Metrics *metrics.Registry
}

const (
	// traceRing bounds the per-SLO ring of budget-burning trace ids an
	// alert names.
	traceRing = 8
)

// policyState is one (SLO, policy) alert state machine.
type policyState struct {
	pol    BurnPolicy
	firing bool
	since  time.Time
	// burnShort/burnLong are the values from the last evaluation.
	burnShort, burnLong float64
	// traceIDs is the correlation payload captured at fire time;
	// pinned tracks which of them the pinner accepted, for unpinning.
	traceIDs []string
	pinned   []string

	burnShortG, burnLongG *metrics.Gauge
	firingG               *metrics.Gauge
	fireCtr, resolveCtr   *metrics.Counter
}

// sloState is one SLO's series plus its policies' alert machines.
type sloState struct {
	def     Definition
	ser     *series
	burners []string // ring, oldest first once full
	bStart  int
	bFull   bool
	pols    []*policyState

	obsCtr  *metrics.Counter
	budgetG *metrics.Gauge
}

// Engine evaluates SLOs. All methods are safe for concurrent use; the
// nil engine is valid and disabled. State changes happen only inside
// Observe — Status and Alerts are read-only views.
type Engine struct {
	mu      sync.Mutex
	states  []*sloState
	log     *evlog.Logger
	pinner  TracePinner
	clock   func() time.Time
	subs    map[int]chan Transition
	nextSub int
	closed  bool
}

// New validates the definitions and builds an engine. Metrics are
// created here, never during Observe, so instrument creation cannot
// deadlock against scrape-time registry locks.
func New(cfg Config) (*Engine, error) {
	defs := cfg.SLOs
	if defs == nil {
		defs = DefaultSLOs()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	e := &Engine{
		log:    cfg.Log,
		pinner: cfg.Pinner,
		clock:  cfg.Clock,
		subs:   make(map[int]chan Transition),
	}
	seen := make(map[string]bool, len(defs))
	reg := cfg.Metrics
	for _, d := range defs {
		d = d.withDefaults()
		if err := d.validate(); err != nil {
			return nil, err
		}
		if seen[d.Name] {
			return nil, errDuplicate(d.Name)
		}
		seen[d.Name] = true
		shortest := d.Policies[0].ShortWindow.D()
		horizon := d.BudgetWindow.D()
		for _, p := range d.Policies {
			if p.ShortWindow.D() < shortest {
				shortest = p.ShortWindow.D()
			}
			if p.LongWindow.D() > horizon {
				horizon = p.LongWindow.D()
			}
		}
		st := &sloState{
			def:     d,
			ser:     newSeries(shortest, horizon),
			burners: make([]string, 0, traceRing),
			obsCtr: reg.Counter(MetricObservations,
				"SLO observations evaluated", metrics.L("slo", d.Name)),
			budgetG: reg.Gauge(MetricBudget,
				"fraction of the error budget consumed over the budget window",
				metrics.L("slo", d.Name)),
		}
		for _, p := range d.Policies {
			ps := &policyState{
				pol: p,
				burnShortG: reg.Gauge(MetricBurn, "error-budget burn rate",
					metrics.L("slo", d.Name), metrics.L("policy", p.Name), metrics.L("window", "short")),
				burnLongG: reg.Gauge(MetricBurn, "error-budget burn rate",
					metrics.L("slo", d.Name), metrics.L("policy", p.Name), metrics.L("window", "long")),
				firingG: reg.Gauge(MetricFiring, "1 while the alert is firing",
					metrics.L("slo", d.Name), metrics.L("policy", p.Name)),
				fireCtr: reg.Counter(MetricTransitions, "alert state transitions",
					metrics.L("slo", d.Name), metrics.L("policy", p.Name), metrics.L("state", StateFiring)),
				resolveCtr: reg.Counter(MetricTransitions, "alert state transitions",
					metrics.L("slo", d.Name), metrics.L("policy", p.Name), metrics.L("state", StateResolved)),
			}
			st.pols = append(st.pols, ps)
		}
		e.states = append(e.states, st)
	}
	return e, nil
}

type errDuplicate string

func (e errDuplicate) Error() string { return "slo: duplicate definition name " + string(e) }

// Observe files one observation and re-evaluates every alert at its
// timestamp. This is the engine's only clock edge: an idle engine
// holds its alert state until the next observation arrives, which is
// exactly what makes recorded timelines replay byte-for-byte.
func (e *Engine) Observe(obs Observation) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if obs.At.IsZero() {
		obs.At = e.clock()
	}
	// Journal before evaluating, under the same lock, so the recorded
	// stream's order is the evaluation order even with many workers.
	if e.log != nil {
		data, err := json.Marshal(obs)
		if err == nil {
			e.log.Emit(evlog.Record{
				At: obs.At, Level: evlog.Info, Component: Component, Event: ObserveEvent,
				JobID: obs.JobID, RequestID: obs.RequestID, TraceID: obs.TraceID,
				Data: data, Unlimited: true,
			})
		}
	}
	for _, st := range e.states {
		good, bad, burner, ok := classify(st.def, obs)
		if !ok {
			continue
		}
		st.obsCtr.Inc()
		st.ser.add(obs.At, good, bad)
		if burner && obs.TraceID != "" {
			st.pushBurner(obs.TraceID)
		}
	}
	e.evaluateLocked(obs.At)
}

// pushBurner appends to the bounded budget-burner ring.
func (st *sloState) pushBurner(id string) {
	if len(st.burners) < cap(st.burners) {
		st.burners = append(st.burners, id)
		return
	}
	st.burners[st.bStart] = id
	st.bStart++
	if st.bStart == len(st.burners) {
		st.bStart = 0
	}
	st.bFull = true
}

// burnerIDs returns the ring oldest-first.
func (st *sloState) burnerIDs() []string {
	out := make([]string, 0, len(st.burners))
	out = append(out, st.burners[st.bStart:]...)
	out = append(out, st.burners[:st.bStart]...)
	return out
}

// burn computes the budget burn rate over (now-w, now]: the window's
// bad fraction divided by the budget fraction. Windows with fewer than
// MinEvents events report zero — no paging on idle noise.
func (st *sloState) burn(now time.Time, w time.Duration) float64 {
	good, bad := st.ser.window(now, w)
	total := good + bad
	if total <= 0 || total < float64(st.def.MinEvents) {
		return 0
	}
	return (bad / total) / (1 - st.def.Objective)
}

// budgetConsumed is the budget-window burn fraction: 1.0 means the
// whole error budget is spent.
func (st *sloState) budgetConsumed(now time.Time) float64 {
	good, bad := st.ser.window(now, st.def.BudgetWindow.D())
	total := good + bad
	if total <= 0 {
		return 0
	}
	return bad / (total * (1 - st.def.Objective))
}

// evaluateLocked advances every alert state machine to "now".
func (e *Engine) evaluateLocked(now time.Time) {
	for _, st := range e.states {
		consumed := st.budgetConsumed(now)
		st.budgetG.Set(consumed)
		for _, ps := range st.pols {
			bs := st.burn(now, ps.pol.ShortWindow.D())
			bl := st.burn(now, ps.pol.LongWindow.D())
			ps.burnShort, ps.burnLong = bs, bl
			ps.burnShortG.Set(bs)
			ps.burnLongG.Set(bl)
			switch {
			case !ps.firing && bs >= ps.pol.BurnRate && bl >= ps.pol.BurnRate:
				ps.firing = true
				ps.since = now
				ps.traceIDs = st.burnerIDs()
				ps.pinned = ps.pinned[:0]
				if e.pinner != nil {
					for _, id := range ps.traceIDs {
						if e.pinner.Pin(id) {
							ps.pinned = append(ps.pinned, id)
						}
					}
				}
				ps.firingG.Set(1)
				ps.fireCtr.Inc()
				e.transitionLocked(Transition{
					At: now, SLO: st.def.Name, Policy: ps.pol.Name, Severity: ps.pol.Severity,
					State: StateFiring, BurnShort: bs, BurnLong: bl,
					BudgetConsumed: consumed, TraceIDs: ps.traceIDs,
				}, FireEvent, evlog.Error)
			case ps.firing && bs < ps.pol.BurnRate*ps.pol.ResolveRatio &&
				bl < ps.pol.BurnRate*ps.pol.ResolveRatio:
				ps.firing = false
				ps.since = now
				if e.pinner != nil {
					for _, id := range ps.pinned {
						e.pinner.Unpin(id)
					}
				}
				ps.pinned = ps.pinned[:0]
				ids := ps.traceIDs
				ps.traceIDs = nil
				ps.firingG.Set(0)
				ps.resolveCtr.Inc()
				e.transitionLocked(Transition{
					At: now, SLO: st.def.Name, Policy: ps.pol.Name, Severity: ps.pol.Severity,
					State: StateResolved, BurnShort: bs, BurnLong: bl,
					BudgetConsumed: consumed, TraceIDs: ids,
				}, ResolveEvent, evlog.Info)
			}
		}
	}
}

// transitionLocked journals a transition and fans it out to
// subscribers.
func (e *Engine) transitionLocked(tr Transition, event string, level evlog.Level) {
	if e.log != nil {
		data, err := json.Marshal(tr)
		if err == nil {
			traceID := ""
			if len(tr.TraceIDs) > 0 {
				traceID = tr.TraceIDs[len(tr.TraceIDs)-1]
			}
			e.log.Emit(evlog.Record{
				At: tr.At, Level: level, Component: Component, Event: event,
				Msg: tr.SLO + "/" + tr.Policy + " " + tr.State, TraceID: traceID,
				Data: data, Unlimited: true,
			})
		}
	}
	for _, ch := range e.subs {
		select {
		case ch <- tr:
		default:
		}
	}
}

// PolicyStatus is one policy's live burn and alert state.
type PolicyStatus struct {
	Name      string   `json:"name"`
	Severity  string   `json:"severity"`
	Short     Duration `json:"short_window"`
	Long      Duration `json:"long_window"`
	Threshold float64  `json:"burn_rate_threshold"`
	BurnShort float64  `json:"burn_short"`
	BurnLong  float64  `json:"burn_long"`
	Firing    bool     `json:"firing"`
	// Since is the last transition time (fire or resolve); zero when
	// the alert has never transitioned.
	Since *time.Time `json:"since,omitempty"`
}

// SLOStatus is one SLO's budget accounting at a point in time.
type SLOStatus struct {
	Name             string         `json:"name"`
	Kind             string         `json:"kind"`
	JobType          string         `json:"job_type,omitempty"`
	Objective        float64        `json:"objective"`
	LatencyThreshold Duration       `json:"latency_threshold,omitempty"`
	BudgetWindow     Duration       `json:"budget_window"`
	GoodEvents       float64        `json:"good_events"`
	BadEvents        float64        `json:"bad_events"`
	BudgetConsumed   float64        `json:"budget_consumed"`
	BudgetRemaining  float64        `json:"budget_remaining"`
	Policies         []PolicyStatus `json:"policies"`
}

// Status reports every SLO's budget and burn state evaluated at now —
// read-only; it never advances alert state.
func (e *Engine) Status(now time.Time) []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.states))
	for _, st := range e.states {
		good, bad := st.ser.window(now, st.def.BudgetWindow.D())
		consumed := st.budgetConsumed(now)
		s := SLOStatus{
			Name: st.def.Name, Kind: st.def.Kind, JobType: st.def.JobType,
			Objective: st.def.Objective, LatencyThreshold: st.def.LatencyThreshold,
			BudgetWindow: st.def.BudgetWindow, GoodEvents: good, BadEvents: bad,
			BudgetConsumed: consumed, BudgetRemaining: 1 - consumed,
		}
		for _, ps := range st.pols {
			p := PolicyStatus{
				Name: ps.pol.Name, Severity: ps.pol.Severity,
				Short: ps.pol.ShortWindow, Long: ps.pol.LongWindow,
				Threshold: ps.pol.BurnRate,
				BurnShort: st.burn(now, ps.pol.ShortWindow.D()),
				BurnLong:  st.burn(now, ps.pol.LongWindow.D()),
				Firing:    ps.firing,
			}
			if !ps.since.IsZero() {
				t := ps.since
				p.Since = &t
			}
			s.Policies = append(s.Policies, p)
		}
		out = append(out, s)
	}
	return out
}

// StatusNow is Status at the engine clock's current time.
func (e *Engine) StatusNow() []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	now := e.clock()
	e.mu.Unlock()
	return e.Status(now)
}

// Alert is one (SLO, policy) alert's current state, with the
// correlated trace ids captured when it fired.
type Alert struct {
	SLO       string    `json:"slo"`
	Policy    string    `json:"policy"`
	Severity  string    `json:"severity"`
	State     string    `json:"state"`
	Since     time.Time `json:"since,omitempty"`
	BurnShort float64   `json:"burn_short"`
	BurnLong  float64   `json:"burn_long"`
	Threshold float64   `json:"burn_rate_threshold"`
	TraceIDs  []string  `json:"trace_ids,omitempty"`
}

// Alerts reports every alert's current state (firing alerts first is
// the caller's sort; order here follows definition order).
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0)
	for _, st := range e.states {
		for _, ps := range st.pols {
			a := Alert{
				SLO: st.def.Name, Policy: ps.pol.Name, Severity: ps.pol.Severity,
				State: StateOK, Since: ps.since,
				BurnShort: ps.burnShort, BurnLong: ps.burnLong, Threshold: ps.pol.BurnRate,
			}
			if ps.firing {
				a.State = StateFiring
				a.TraceIDs = ps.traceIDs
			}
			out = append(out, a)
		}
	}
	return out
}

// Firing reports how many alerts are currently firing.
func (e *Engine) Firing() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, st := range e.states {
		for _, ps := range st.pols {
			if ps.firing {
				n++
			}
		}
	}
	return n
}

// Subscribe registers a transition listener. Sends never block: a slow
// subscriber misses transitions rather than stalling Observe. Release
// with Unsubscribe; Close closes every subscriber channel.
func (e *Engine) Subscribe() (int, <-chan Transition) {
	if e == nil {
		return 0, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextSub
	e.nextSub++
	ch := make(chan Transition, 16)
	if e.closed {
		close(ch)
		return id, ch
	}
	e.subs[id] = ch
	return id, ch
}

// Unsubscribe releases a subscription and closes its channel.
func (e *Engine) Unsubscribe(id int) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ch, ok := e.subs[id]; ok {
		delete(e.subs, id)
		close(ch)
	}
}

// Close stops the engine: subscribers are closed and later
// observations are dropped.
func (e *Engine) Close() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for id, ch := range e.subs {
		delete(e.subs, id)
		close(ch)
	}
}
