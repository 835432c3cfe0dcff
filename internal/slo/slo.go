// Package slo turns the serving stack's raw telemetry into an
// operational contract: declarative service-level objectives over job
// availability, per-type latency, and gate accuracy, each with an
// error budget accounted over a sliding window and Google-SRE-style
// multi-window multi-burn-rate alerting (a fast 5m/1h "page" policy
// and a slow 6h/3d "ticket" policy, with hysteresis on resolve).
//
// The engine is deliberately clock-free: state transitions happen only
// inside Observe, evaluated at the observation's own timestamp, and
// every observation is journaled to the structured event log before it
// is evaluated. That makes the alert timeline a pure function of the
// observation stream: feeding a recorded event log's slo.observe
// records through a fresh engine reproduces the live fire/resolve
// transitions byte-for-byte, the same live==offline contract the
// health monitor and flight recorder already honor.
//
// Alerts correlate, not just aggregate: each SLO keeps a short ring of
// the trace ids that burned its budget, a firing alert carries those
// ids in its payload, and (when a TracePinner is wired) pins the
// matching flight recordings against eviction until the alert
// resolves.
package slo

import (
	"encoding/json"
	"fmt"
	"time"
)

// Kinds of objective a Definition can state.
const (
	// KindAvailability counts terminal jobs: done is good, failed is
	// bad, canceled is excluded (the operator tore the engine down; the
	// service did not fail the caller).
	KindAvailability = "availability"
	// KindLatency counts completed jobs: good when the job's latency is
	// at or under the definition's threshold.
	KindLatency = "latency"
	// KindGateAccuracy counts individual gate evaluations: good ops are
	// the ones that matched the golden model. This is the paper's
	// timing-margin story as a budget — drift eats accuracy, accuracy
	// eats budget.
	KindGateAccuracy = "gate_accuracy"
)

// Alert severities used by the default policies.
const (
	SeverityPage   = "page"
	SeverityTicket = "ticket"
)

// Alert states as they appear in transitions and /v1/alerts.
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
	StateOK       = "ok"
)

// Event log coordinates. Observation and transition records are
// emitted Unlimited (never rate-limited): they are the replay
// substrate, and a dropped record would fork the offline timeline.
const (
	Component    = "slo"
	ObserveEvent = "slo.observe"
	FireEvent    = "alert.fire"
	ResolveEvent = "alert.resolve"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("5m", "1h30m") so SLO config files read like the policies they
// state. It also accepts plain nanosecond numbers on decode.
type Duration time.Duration

// D converts back to a time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String renders the duration compactly.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON encodes the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "5m"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("slo: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("slo: duration must be a string like \"5m\" or nanoseconds: %w", err)
	}
	*d = Duration(n)
	return nil
}

// BurnPolicy is one multi-window burn-rate alerting rule: the alert
// fires when the error-budget burn rate over BOTH windows meets
// BurnRate (the short window proves the problem is current, the long
// window proves it is sustained), and resolves with hysteresis when
// both fall below BurnRate × ResolveRatio.
type BurnPolicy struct {
	Name     string `json:"name"`
	Severity string `json:"severity"`
	// ShortWindow and LongWindow are the two evaluation windows.
	ShortWindow Duration `json:"short_window"`
	LongWindow  Duration `json:"long_window"`
	// BurnRate is the firing threshold: 1.0 burns exactly the budget
	// over the budget window; 14.4 exhausts a 30-day budget in 2 days.
	BurnRate float64 `json:"burn_rate"`
	// ResolveRatio (0,1] scales BurnRate into the resolve threshold;
	// zero selects 0.9.
	ResolveRatio float64 `json:"resolve_ratio,omitempty"`
}

// DefaultPolicies returns the canonical SRE pairing: a fast page and a
// slow ticket.
func DefaultPolicies() []BurnPolicy {
	return []BurnPolicy{
		{Name: "fast", Severity: SeverityPage, ShortWindow: Duration(5 * time.Minute),
			LongWindow: Duration(time.Hour), BurnRate: 14.4, ResolveRatio: 0.9},
		{Name: "slow", Severity: SeverityTicket, ShortWindow: Duration(6 * time.Hour),
			LongWindow: Duration(72 * time.Hour), BurnRate: 1, ResolveRatio: 0.9},
	}
}

// Definition declares one SLO.
type Definition struct {
	Name string `json:"name"`
	// Kind selects the classifier: availability, latency, or
	// gate_accuracy.
	Kind string `json:"kind"`
	// JobType restricts the SLO to one job type; empty matches all.
	JobType string `json:"job_type,omitempty"`
	// Objective is the good-event target in (0,1), e.g. 0.99. The error
	// budget is the complement.
	Objective float64 `json:"objective"`
	// LatencyThreshold is the good/bad boundary for latency SLOs.
	LatencyThreshold Duration `json:"latency_threshold,omitempty"`
	// BudgetWindow is the budget accounting horizon (default 24h).
	BudgetWindow Duration `json:"budget_window,omitempty"`
	// MinEvents suppresses burn evaluation for windows with fewer
	// events — a single failed job in an idle window is not a page
	// (default 10).
	MinEvents int `json:"min_events,omitempty"`
	// Policies are the burn-rate alert rules (default DefaultPolicies).
	Policies []BurnPolicy `json:"policies,omitempty"`
}

func (d Definition) withDefaults() Definition {
	if d.BudgetWindow <= 0 {
		d.BudgetWindow = Duration(24 * time.Hour)
	}
	if d.MinEvents == 0 {
		d.MinEvents = 10
	}
	if len(d.Policies) == 0 {
		d.Policies = DefaultPolicies()
	}
	for i := range d.Policies {
		if d.Policies[i].ResolveRatio <= 0 || d.Policies[i].ResolveRatio > 1 {
			d.Policies[i].ResolveRatio = 0.9
		}
	}
	return d
}

func (d Definition) validate() error {
	if d.Name == "" {
		return fmt.Errorf("slo: definition needs a name")
	}
	if !(d.Objective > 0 && d.Objective < 1) {
		return fmt.Errorf("slo %q: objective %v outside (0,1)", d.Name, d.Objective)
	}
	switch d.Kind {
	case KindAvailability, KindGateAccuracy:
	case KindLatency:
		if d.LatencyThreshold <= 0 {
			return fmt.Errorf("slo %q: latency kind needs latency_threshold", d.Name)
		}
	default:
		return fmt.Errorf("slo %q: unknown kind %q", d.Name, d.Kind)
	}
	for _, p := range d.Policies {
		if p.Name == "" {
			return fmt.Errorf("slo %q: policy needs a name", d.Name)
		}
		if p.ShortWindow <= 0 || p.LongWindow <= 0 || p.ShortWindow > p.LongWindow {
			return fmt.Errorf("slo %q policy %q: windows must satisfy 0 < short <= long",
				d.Name, p.Name)
		}
		if p.BurnRate <= 0 {
			return fmt.Errorf("slo %q policy %q: burn_rate must be positive", d.Name, p.Name)
		}
	}
	return nil
}

// DefaultSLOs is the out-of-the-box contract uwm-serve enforces when
// no -slo-config is given: three nines of job availability, a
// gate-accuracy floor matching the engine's default vote redundancy,
// and a generous latency bound that pages only on real stalls.
func DefaultSLOs() []Definition {
	return []Definition{
		{Name: "job-availability", Kind: KindAvailability, Objective: 0.99},
		{Name: "gate-accuracy", Kind: KindGateAccuracy, Objective: 0.90},
		{Name: "job-latency", Kind: KindLatency, Objective: 0.99,
			LatencyThreshold: Duration(5 * time.Second)},
	}
}

// ParseDefinitions decodes an SLO config document: either a bare JSON
// array of definitions or an object {"slos": [...]}.
func ParseDefinitions(b []byte) ([]Definition, error) {
	var wrapped struct {
		SLOs []Definition `json:"slos"`
	}
	if err := json.Unmarshal(b, &wrapped); err == nil && wrapped.SLOs != nil {
		return wrapped.SLOs, nil
	}
	var defs []Definition
	if err := json.Unmarshal(b, &defs); err != nil {
		return nil, fmt.Errorf("slo: config must be [{...}] or {\"slos\": [...]}: %w", err)
	}
	return defs, nil
}

// Observation is one unit of evidence: a terminal job, with its
// correlation ids and (for gate jobs) the per-op accuracy tally. The
// engine emits one evlog record per observation; those records are the
// whole replay input.
type Observation struct {
	// At is the evaluation timestamp. The engine stamps it from its
	// clock when zero; replay keeps the recorded stamp.
	At        time.Time `json:"at"`
	JobID     string    `json:"job_id,omitempty"`
	RequestID string    `json:"request_id,omitempty"`
	// TraceID names the flight recording correlated with this
	// observation (the engine uses the job id).
	TraceID string `json:"trace_id,omitempty"`
	// Type is the job type; Status its terminal state (done, failed,
	// canceled).
	Type   string `json:"type"`
	Status string `json:"status"`
	// LatencySeconds is the job's execution latency.
	LatencySeconds float64 `json:"latency_seconds"`
	// GateCorrect/GateTotal tally individual gate evaluations across
	// the job's attempts; zero total means "not a gate job".
	GateCorrect int `json:"gate_correct,omitempty"`
	GateTotal   int `json:"gate_total,omitempty"`
}

// classify maps an observation onto one SLO's good/bad scale. burner
// reports whether this observation itself violated the objective —
// those are the traces an alert names.
func classify(d Definition, obs Observation) (good, bad float64, burner, ok bool) {
	if d.JobType != "" && d.JobType != obs.Type {
		return 0, 0, false, false
	}
	switch d.Kind {
	case KindAvailability:
		switch obs.Status {
		case "done":
			return 1, 0, false, true
		case "failed":
			return 0, 1, true, true
		default:
			return 0, 0, false, false
		}
	case KindLatency:
		if obs.Status != "done" {
			return 0, 0, false, false
		}
		if obs.LatencySeconds <= d.LatencyThreshold.D().Seconds() {
			return 1, 0, false, true
		}
		return 0, 1, true, true
	case KindGateAccuracy:
		if obs.GateTotal <= 0 {
			return 0, 0, false, false
		}
		good = float64(obs.GateCorrect)
		bad = float64(obs.GateTotal - obs.GateCorrect)
		burner = good/float64(obs.GateTotal) < d.Objective
		return good, bad, burner, true
	default:
		return 0, 0, false, false
	}
}

// TracePinner is the flight recorder's pinning surface, stated
// structurally so this package does not import flightrec. Pin reports
// whether a recording with that id existed to pin.
type TracePinner interface {
	Pin(id string) bool
	Unpin(id string)
}

// Transition is one alert state change. Its JSON encoding is the
// byte-for-byte unit of the determinism contract: live and replayed
// timelines must marshal identically.
type Transition struct {
	At       time.Time `json:"at"`
	SLO      string    `json:"slo"`
	Policy   string    `json:"policy"`
	Severity string    `json:"severity"`
	State    string    `json:"state"`
	// BurnShort/BurnLong are the burn rates that crossed the threshold.
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	// BudgetConsumed is the budget-window burn fraction at transition
	// time (1.0 = budget exhausted).
	BudgetConsumed float64 `json:"budget_consumed"`
	// TraceIDs are the recent budget-burning trace ids, oldest first.
	// They are derived from observations alone (not from pin results)
	// so replayed transitions carry the same ids.
	TraceIDs []string `json:"trace_ids,omitempty"`
}
