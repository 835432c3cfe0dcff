package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// flags renders the mirrored settings the way flag.PrintDefaults shows
// them, keyed by flag name.
func (c serveConfig) flags() map[string]string {
	return map[string]string{
		"workers": strconv.Itoa(c.Workers), "queue": strconv.Itoa(c.Queue),
		"seed": strconv.FormatUint(c.Seed, 10), "train": strconv.Itoa(c.Train),
		"attempts": strconv.Itoa(c.Attempts), "vote": strconv.Itoa(c.Vote),
		"timeout": c.Timeout.String(),
		"flight":  strconv.FormatBool(c.Flight), "flight-keep": strconv.Itoa(c.FlightKeep),
		"flight-errors": strconv.Itoa(c.FlightErrors), "flight-head-rate": fmt.Sprint(c.FlightHeadRate),
		"flight-events": strconv.Itoa(c.FlightEvents), "slo": strconv.FormatBool(c.SLO),
	}
}

// flags renders the mirrored gateway settings like serveConfig.flags.
func (c gatewayConfig) flags() map[string]string {
	return map[string]string{
		"probe-interval": c.ProbeInterval.String(),
		"cache-entries":  strconv.Itoa(c.CacheEntries), "cache-bytes": strconv.Itoa(c.CacheBytes),
		"cache-ttl": c.CacheTTL.String(),
		"hedge":     strconv.FormatBool(c.Hedge), "hedge-budget": fmt.Sprint(c.HedgeBudget),
	}
}

// helpDefaults runs a repository binary with -help and returns every
// flag it lists with its default as flag.PrintDefaults shows it ("" for
// a zero default, which PrintDefaults omits).
func helpDefaults(t *testing.T, pkg string) map[string]string {
	t.Helper()
	out, _ := exec.Command("go", "run", pkg, "-help").CombinedOutput() // -help exits 2 by design
	defaults := make(map[string]string)
	name := ""
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "  -"):
			name = strings.Fields(strings.TrimPrefix(line, "  -"))[0]
			defaults[name] = ""
		case name != "" && strings.HasPrefix(line, "    \t"):
			if i := strings.LastIndex(line, "(default "); i >= 0 && strings.HasSuffix(line, ")") {
				defaults[name] = strings.Trim(line[i+len("(default "):len(line)-1], `"`)
			}
		}
	}
	if len(defaults) == 0 {
		t.Fatalf("go run %s -help listed no flags:\n%s", pkg, out)
	}
	return defaults
}

// TestConfigMirrorsBinaries checks that the engine and gateway settings
// the serve and circuit workloads use equal the defaults uwm-serve and
// uwm-gateway print with -help. The only departures are the listen
// address and the serve workload's one worker per backend. A flag the
// benchmark neither mirrors nor lists here fails the test, so a new
// default gets a decision instead of drifting in silently.
func TestConfigMirrorsBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	// Observability and output flags the benchmark leaves at their
	// zero default (off).
	off := []string{"metrics", "trace-out", "pprof", "cycleprof", "version"}
	for _, c := range []struct {
		pkg       string
		mirrored  map[string]string
		zero      []string
		unrelated []string // addresses, drain bounds: not part of what is measured
	}{
		{
			pkg:       "uwm/cmd/uwm-serve",
			mirrored:  uwmServe.flags(),
			zero:      append([]string{"postmortem-dir", "slo-config", "alert-webhook", "evlog"}, off...),
			unrelated: []string{"addr", "addr-file", "drain-timeout"},
		},
		{
			pkg:       "uwm/cmd/uwm-gateway",
			mirrored:  uwmGateway.flags(),
			zero:      off,
			unrelated: []string{"addr", "addr-file", "drain-timeout", "backends"},
		},
	} {
		help := helpDefaults(t, c.pkg)
		seen := make(map[string]bool)
		for flag, want := range c.mirrored {
			seen[flag] = true
			got, ok := help[flag]
			if !ok {
				t.Errorf("%s: -help does not list -%s, which the benchmark mirrors", c.pkg, flag)
			} else if got != want {
				t.Errorf("%s: -%s defaults to %q, the benchmark uses %q", c.pkg, flag, got, want)
			}
		}
		for _, flag := range c.zero {
			seen[flag] = true
			if got := help[flag]; got != "" {
				t.Errorf("%s: -%s now defaults to %q; the benchmark runs with it off", c.pkg, flag, got)
			}
		}
		for _, flag := range c.unrelated {
			seen[flag] = true
		}
		for flag := range help {
			if !seen[flag] {
				t.Errorf("%s: new flag -%s (default %q) is neither mirrored nor listed by the benchmark", c.pkg, flag, help[flag])
			}
		}
	}
}
