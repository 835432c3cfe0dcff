// Command uwm-top is a live terminal view of a running uwm-serve: it
// polls the service's /healthz, /v1/health/detail, /v1/slo, /v1/alerts,
// /v1/traces and /metrics endpoints and renders per-worker gate health
// — timing-margin histograms, drift verdicts, calibration counts —
// next to the pool's throughput counters, the SLO error budgets with
// any firing burn-rate alerts, and the flight recorder's most recent
// kept traces.
//
//	uwm-serve -addr :8080 &
//	uwm-top -addr http://localhost:8080             # refresh every 2s
//	uwm-top -addr http://localhost:8080 -once       # one snapshot, no TUI
//
// Pointed at a cluster gateway (uwm-gateway) instead of a single
// uwm-serve, the per-worker panels give way to a backends panel polled
// from GET /v1/cluster: per-backend routing state and in-flight count
// (the gateway routes to the least-loaded backend), next to the result
// cache's hit ratio and the hedge accounting.
//
// The per-worker panels are rendered by the same code the offline
// `uwm-trace -health` mode uses, so an operator watching uwm-top and an
// engineer replaying the recorded trace read identical pictures.
//
// A failed poll does not kill the console: the frame banners the error
// with the time of the last successful poll and keeps rendering that
// stale snapshot while retrying, so the view survives the exact moment
// an operator needs it — the polled server going away.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"uwm/internal/health"
	"uwm/internal/obs"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(realMain(os.Args[1:], os.Stdout, sigs))
}

// healthzView mirrors the fields of the httpapi healthz body this
// console displays; decoding into a local struct keeps uwm-top a pure
// HTTP client with no engine dependency.
type healthzView struct {
	Status          string `json:"status"`
	Workers         int    `json:"workers"`
	HealthyWorkers  int    `json:"healthy_workers"`
	DriftingWorkers int    `json:"drifting_workers"`
	QueueDepth      int    `json:"queue_depth"`
	QueueCapacity   int    `json:"queue_capacity"`
	Inflight        int    `json:"inflight"`
	Submitted       int64  `json:"submitted"`
}

// workerView mirrors engine.WorkerHealth.
type workerView struct {
	Worker   int             `json:"worker"`
	Snapshot health.Snapshot `json:"health"`
}

// traceView mirrors the fields of a flightrec.Entry this console
// displays.
type traceView struct {
	ID             string  `json:"id"`
	RequestID      string  `json:"request_id"`
	Type           string  `json:"type"`
	Status         string  `json:"status"`
	Reason         string  `json:"reason"`
	Pinned         bool    `json:"pinned"`
	Events         int     `json:"events"`
	LatencySeconds float64 `json:"latency_seconds"`
}

// realMain returns main's exit code so tests can drive the CLI.
func realMain(args []string, out io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("uwm-top", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the uwm-serve instance")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	width := fs.Int("width", 48, "histogram bar width in characters")
	version := obs.AddVersionFlag(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: uwm-top [-addr url] [-interval d] [-once]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		obs.PrintVersion(os.Stdout, "uwm-top")
		return 0
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	base := strings.TrimRight(*addr, "/")

	// A failed poll must not kill the console or wipe the screen: the
	// last good frame stays up under a stale-data banner and polling
	// continues, so a uwm-serve restart heals the view by itself.
	var lastGood string
	var lastSuccess time.Time
	for {
		frame, err := renderFrame(base, *width)
		switch {
		case err != nil && *once:
			fmt.Fprintf(os.Stderr, "uwm-top: %v\n", err)
			return 1
		case err != nil:
			var b strings.Builder
			fmt.Fprintf(&b, "uwm-top  %s  %s  ** POLL FAILED: %v **\n",
				base, time.Now().Format("15:04:05"), err)
			if lastSuccess.IsZero() {
				b.WriteString("no successful poll yet; retrying\n")
			} else {
				fmt.Fprintf(&b, "showing STALE data from last success at %s\n\n",
					lastSuccess.Format("15:04:05"))
				b.WriteString(lastGood)
			}
			fmt.Fprint(out, "\x1b[H\x1b[2J")
			fmt.Fprint(out, b.String())
		default:
			lastGood, lastSuccess = frame, time.Now()
			if !*once {
				fmt.Fprint(out, "\x1b[H\x1b[2J") // home + clear
			}
			fmt.Fprint(out, frame)
		}
		if *once {
			return 0
		}
		select {
		case <-sigs:
			return 0
		case <-time.After(*interval):
		}
	}
}

// renderFrame polls all three endpoints and assembles one screenful.
func renderFrame(base string, width int) (string, error) {
	var hz healthzView
	if err := getJSON(base+"/healthz", &hz); err != nil {
		return "", err
	}
	// Worker detail only exists on a uwm-serve; pointed at a cluster
	// gateway the endpoint 404s and the per-worker panels are skipped
	// (the backends panel takes their place).
	var workers []workerView
	_ = getJSON200(base+"/v1/health/detail", &workers)
	counters, _ := scrapeCounters(base + "/metrics") // metrics are optional garnish

	var b strings.Builder
	fmt.Fprintf(&b, "uwm-top  %s  %s\n", base, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "pool: %s  workers=%d healthy=%d drifting=%d  queue=%d/%d inflight=%d submitted=%d\n",
		hz.Status, hz.Workers, hz.HealthyWorkers, hz.DriftingWorkers,
		hz.QueueDepth, hz.QueueCapacity, hz.Inflight, hz.Submitted)
	if len(counters) > 0 {
		b.WriteString("totals:")
		for _, c := range counters {
			name := strings.TrimPrefix(c.name, "uwm_engine_")
			name = strings.TrimPrefix(name, "uwm_flightrec_")
			name = strings.TrimPrefix(name, "uwm_trace_")
			fmt.Fprintf(&b, " %s=%d", strings.TrimSuffix(name, "_total"), c.value)
		}
		b.WriteByte('\n')
	}
	renderCluster(&b, base)
	renderSLO(&b, base)
	renderTraces(&b, base)
	for _, w := range workers {
		fmt.Fprintf(&b, "\n-- worker %d --\n", w.Worker)
		b.WriteString(health.RenderSnapshot(w.Snapshot, width))
	}
	return b.String(), nil
}

// backendView mirrors the fields of a cluster.BackendStatus row this
// console displays.
type backendView struct {
	Index     int    `json:"index"`
	URL       string `json:"url"`
	State     string `json:"state"`
	Inflight  int64  `json:"inflight"`
	LastError string `json:"last_error"`
}

// clusterView mirrors the GET /v1/cluster payload.
type clusterView struct {
	Backends []backendView `json:"backends"`
	Cache    struct {
		Entries   int     `json:"entries"`
		Hits      uint64  `json:"hits"`
		Misses    uint64  `json:"misses"`
		Collapsed uint64  `json:"collapsed"`
		HitRatio  float64 `json:"hit_ratio"`
	} `json:"cache"`
	Hedge struct {
		Launched   uint64 `json:"launched"`
		Won        uint64 `json:"won"`
		Suppressed uint64 `json:"suppressed"`
	} `json:"hedge"`
}

// renderCluster appends the gateway backends panel: per-backend state
// and in-flight count, plus the result cache's hit ratio and the hedge
// accounting. Pointed at a plain uwm-serve (404) the panel is just
// omitted.
func renderCluster(b *strings.Builder, base string) {
	var cv clusterView
	if err := getJSON200(base+"/v1/cluster", &cv); err != nil || len(cv.Backends) == 0 {
		return
	}
	routable := 0
	for _, be := range cv.Backends {
		if be.State == "up" || be.State == "unknown" {
			routable++
		}
	}
	fmt.Fprintf(b, "cluster: %d/%d backend(s) routable  cache hit %.0f%% (%d hit / %d miss / %d collapsed)  hedges %d launched %d won %d suppressed\n",
		routable, len(cv.Backends), cv.Cache.HitRatio*100,
		cv.Cache.Hits, cv.Cache.Misses, cv.Cache.Collapsed,
		cv.Hedge.Launched, cv.Hedge.Won, cv.Hedge.Suppressed)
	for _, be := range cv.Backends {
		fmt.Fprintf(b, "  [%d] %-28s %-9s inflight=%d",
			be.Index, be.URL, be.State, be.Inflight)
		if be.LastError != "" {
			fmt.Fprintf(b, "  err=%s", be.LastError)
		}
		b.WriteByte('\n')
	}
}

// sloView mirrors the fields of an slo.SLOStatus this console
// displays.
type sloView struct {
	Name            string  `json:"name"`
	Kind            string  `json:"kind"`
	Objective       float64 `json:"objective"`
	BudgetConsumed  float64 `json:"budget_consumed"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

// alertView mirrors the fields of an slo.Alert this console displays.
type alertView struct {
	SLO       string   `json:"slo"`
	Policy    string   `json:"policy"`
	Severity  string   `json:"severity"`
	State     string   `json:"state"`
	BurnShort float64  `json:"burn_short"`
	BurnLong  float64  `json:"burn_long"`
	Threshold float64  `json:"burn_rate_threshold"`
	TraceIDs  []string `json:"trace_ids"`
}

// renderSLO appends the error-budget and alerts panel. A server
// running without the SLO engine (404) just omits it.
func renderSLO(b *strings.Builder, base string) {
	var sb struct {
		SLOs []sloView `json:"slos"`
	}
	if err := getJSON200(base+"/v1/slo", &sb); err != nil || len(sb.SLOs) == 0 {
		return
	}
	var ab struct {
		Alerts []alertView `json:"alerts"`
		Firing int         `json:"firing"`
	}
	_ = getJSON200(base+"/v1/alerts", &ab)
	fmt.Fprintf(b, "slo: %d objective(s), %d alert(s) firing\n", len(sb.SLOs), ab.Firing)
	for _, s := range sb.SLOs {
		fmt.Fprintf(b, "  %-16s %-13s objective=%-7.4g budget used %6.1f%%\n",
			s.Name, s.Kind, s.Objective, s.BudgetConsumed*100)
	}
	for _, a := range ab.Alerts {
		if a.State != "firing" {
			continue
		}
		fmt.Fprintf(b, "  ALERT %s/%s [%s] burn %.1f/%.1f over threshold %.1f",
			a.SLO, a.Policy, a.Severity, a.BurnShort, a.BurnLong, a.Threshold)
		if len(a.TraceIDs) > 0 {
			fmt.Fprintf(b, "  traces: %s", strings.Join(a.TraceIDs, ","))
		}
		b.WriteByte('\n')
	}
}

// tracePanelRows caps how many kept traces the panel lists; the full
// index stays one `curl /v1/traces` away.
const tracePanelRows = 5

// renderTraces appends the flight-recorder panel. A server running
// without a recorder (404) or an older one without the endpoint just
// omits the panel — the console must keep working against both.
func renderTraces(b *strings.Builder, base string) {
	var entries []traceView
	if err := getJSON(base+"/v1/traces", &entries); err != nil {
		return
	}
	pinned := 0
	for _, e := range entries {
		if e.Pinned {
			pinned++
		}
	}
	fmt.Fprintf(b, "flight recorder: %d kept trace(s), %d pinned error(s)\n", len(entries), pinned)
	for i, e := range entries {
		if i == tracePanelRows {
			fmt.Fprintf(b, "  … %d more\n", len(entries)-tracePanelRows)
			break
		}
		pin := ""
		if e.Pinned {
			pin = " [pinned]"
		}
		fmt.Fprintf(b, "  %-13s %-7s %-8s keep=%-12s %6.1fms %5d ev%s  req=%s\n",
			e.ID, e.Type, e.Status, e.Reason, e.LatencySeconds*1e3, e.Events, pin, e.RequestID)
	}
}

func getJSON(url string, dst any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// /healthz answers 503 with a well-formed body when degraded or
	// draining — that is exactly what this console wants to show.
	return json.NewDecoder(resp.Body).Decode(dst)
}

// getJSON200 is getJSON for endpoints whose error envelope would
// otherwise decode into an empty success body (the optional panels).
func getJSON200(url string, dst any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

type counter struct {
	name  string
	value uint64
}

// scrapeCounters parses a Prometheus text exposition and sums the
// engine's job/retry/recalibration counters across label sets.
func scrapeCounters(url string) ([]counter, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}

	wanted := map[string]bool{
		"uwm_engine_jobs_total":               true,
		"uwm_engine_retries_total":            true,
		"uwm_engine_recalibrations_total":     true,
		"uwm_engine_vote_disagreements_total": true,
		"uwm_trace_dropped_events_total":      true,
		"uwm_flightrec_evictions_total":       true,
	}
	sums := map[string]uint64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := splitSample(line)
		if !ok || !wanted[name] {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			continue // float-formatted gauges are not ours
		}
		sums[name] += n
	}
	out := make([]counter, 0, len(sums))
	for name, v := range sums {
		out = append(out, counter{name, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// splitSample splits `name{labels} value` or `name value` into the bare
// metric name and the value text. OpenMetrics exemplars (` # {...} v`
// after the value) are stripped first.
func splitSample(line string) (name, value string, ok bool) {
	if i := strings.Index(line, " # "); i >= 0 {
		line = line[:i]
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", false
	}
	name, value = line[:sp], line[sp+1:]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	return name, value, name != ""
}
