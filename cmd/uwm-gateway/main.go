// Command uwm-gateway fronts N uwm-serve backends with one
// health-aware, result-caching, request-hedging gateway.
//
// Usage:
//
//	uwm-serve -addr 127.0.0.1:8081 &
//	uwm-serve -addr 127.0.0.1:8082 &
//	uwm-gateway -backends 127.0.0.1:8081,127.0.0.1:8082
//
// Clients talk to the gateway exactly as they would to a single
// uwm-serve: POST /v1/jobs (sync with ?wait=1 or async), poll
// GET /v1/jobs/{id}, fetch flight recordings at
// GET /v1/jobs/{id}/trace — the gateway remembers which backend owns
// which job and passes the request through, so `uwm-trace -from`
// pointed at the gateway works unchanged.
//
// On top of the pass-through surface the gateway adds:
//
//   - health-aware routing: an active prober walks each backend's
//     /healthz; draining (503) and shedding (429) backends are routed
//     around, and each submission goes to the routable backend with the
//     fewest of the gateway's submissions in flight;
//   - hedged sync submissions: after the job type's observed p95, a
//     second attempt races on another backend under a ~10% budget;
//   - a content-addressed result cache: deterministic (type, payload,
//     seed) jobs are served from an LRU on repeat, and concurrent
//     duplicates collapse onto one backend submission;
//   - GET /v1/cluster: per-backend health, in-flight counts,
//     hedge accounting and cache hit/miss/collapse stats (the uwm-top
//     backends panel polls it).
//
// SIGINT/SIGTERM drains gracefully: /healthz flips to 503 draining,
// in-flight proxied requests finish (bounded by -drain-timeout), then
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"uwm/internal/cluster"
	"uwm/internal/metrics"
	"uwm/internal/obs"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(realMain(os.Args[1:], sigs))
}

// realMain returns main's exit code so tests can drive the full
// lifecycle in-process: 0 ok, 1 runtime error, 2 usage error.
func realMain(args []string, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("uwm-gateway", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "localhost:8090", "HTTP listen address (host:0 picks an ephemeral port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening")
		backends = fs.String("backends", "", "comma-separated uwm-serve base URLs to front (required)")
		probe    = fs.Duration("probe-interval", time.Second, "backend health-probe period")
		drain    = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight proxied requests")

		cacheEntries = fs.Int("cache-entries", 1024, "result-cache entry bound (negative disables caching)")
		cacheBytes   = fs.Int("cache-bytes", 64<<20, "result-cache total byte bound")
		cacheTTL     = fs.Duration("cache-ttl", 10*time.Minute, "result-cache entry lifetime")

		hedge       = fs.Bool("hedge", true, "hedge slow sync submissions on a second backend")
		hedgeBudget = fs.Float64("hedge-budget", 0.10, "fraction of traffic allowed to hedge")
	)
	var obsCfg obs.Config
	obsCfg.AddFlags(fs)
	version := obs.AddVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		obs.PrintVersion(os.Stdout, "uwm-gateway")
		return 0
	}
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "uwm-gateway: -backends is required (comma-separated uwm-serve addresses)")
		return 2
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	sess, err := obs.Start(obsCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uwm-gateway:", err)
		return 1
	}
	defer sess.Close()

	// Like uwm-serve, the gateway always keeps a registry so /metrics
	// works even without -metrics.
	reg := sess.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
		obs.RegisterBuildInfo(reg)
	}

	gw, err := cluster.New(cluster.Config{
		Backends:      urls,
		ProbeInterval: *probe,
		CacheEntries:  *cacheEntries,
		CacheBytes:    *cacheBytes,
		CacheTTL:      *cacheTTL,
		Hedge:         *hedge,
		HedgeBudget:   *hedgeBudget,
		Metrics:       reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "uwm-gateway:", err)
		return 2
	}

	mux := http.NewServeMux()
	mux.Handle("/", gw)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WriteText(w)
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uwm-gateway:", err)
		gw.Close()
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "uwm-gateway:", err)
			ln.Close()
			gw.Close()
			return 1
		}
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "uwm-gateway: fronting %d backend(s), listening on http://%s/\n",
		len(urls), ln.Addr())

	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "uwm-gateway: %v: draining (timeout %s)\n", sig, *drain)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "uwm-gateway:", err)
		gw.Close()
		return 1
	}

	// Drain order: flip /healthz to draining first (a fronting LB stops
	// sending), then let in-flight proxied requests finish.
	gw.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		fmt.Fprintln(os.Stderr, "uwm-gateway: http shutdown:", err)
		code = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "uwm-gateway:", err)
		code = 1
	}
	return code
}
