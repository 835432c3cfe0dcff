GO ?= go
BENCH_OUT ?= BENCH_$(shell date +%Y%m%d-%H%M%S).json

.PHONY: all build test race race-shard micro-bench vet staticcheck fmt-check ci serve-smoke slo-smoke cluster-smoke bench bench-report bench-compare clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-shard is a second, dedicated race pass over the packages that
# share mutable state across goroutines; -count=2 also surfaces state
# carried between in-process reruns.
race-shard:
	$(GO) test -race -count=2 \
		./internal/engine/... ./internal/flightrec ./internal/health \
		./internal/slo ./internal/evlog ./internal/cluster

# micro-bench runs one iteration of each gate-activation, cache and
# cpu micro-benchmark, so they keep compiling and running.
micro-bench:
	$(GO) test -run '^$$' \
		-bench 'GateOp_|Hierarchy|LRU|Flush|CommittedALU|TimedLoad|SpeculativeWindow|TSXAbortWindow' \
		-benchtime 1x . ./internal/cache ./internal/cpu

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is available (CI installs it; local
# runs without it just skip).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# ci is the gate a pull request must pass: formatting, static checks,
# a clean build, the full test suite under the race detector, and the
# job-service and gate-health smoke tests.
ci: fmt-check vet staticcheck build race race-shard micro-bench serve-smoke slo-smoke cluster-smoke health-smoke

# serve-smoke boots uwm-serve on an ephemeral port, runs the example
# client under a known request id, fetches that job's flight-recording
# by the id and pipes it through uwm-trace, runs a one-shot uwm-top,
# and asserts a clean SIGTERM drain (exit 0) that leaves a post-mortem
# dump behind.
serve-smoke:
	@tmpdir="$$(mktemp -d)"; \
	trap 'rm -rf "$$tmpdir"' EXIT; \
	$(GO) build -o "$$tmpdir/uwm-serve" ./cmd/uwm-serve; \
	$(GO) build -o "$$tmpdir/uwm-top" ./cmd/uwm-top; \
	$(GO) build -o "$$tmpdir/uwm-trace" ./cmd/uwm-trace; \
	"$$tmpdir/uwm-serve" -addr 127.0.0.1:0 -addr-file "$$tmpdir/addr" \
		-postmortem-dir "$$tmpdir/postmortem" & \
	serve_pid=$$!; \
	i=0; while [ ! -s "$$tmpdir/addr" ]; do \
		i=$$((i + 1)); [ "$$i" -gt 100 ] && exit 1; sleep 0.1; \
	done; \
	$(GO) run ./examples/serve -addr "$$(cat "$$tmpdir/addr")" -request-id smoke-trace-1 && \
	"$$tmpdir/uwm-trace" -from "http://$$(cat "$$tmpdir/addr")" -job smoke-trace-1 >/dev/null && \
	"$$tmpdir/uwm-trace" -health -from "http://$$(cat "$$tmpdir/addr")" -job smoke-trace-1 >/dev/null && \
	"$$tmpdir/uwm-top" -addr "http://$$(cat "$$tmpdir/addr")" -once >/dev/null && \
	kill -TERM "$$serve_pid" && wait "$$serve_pid" && \
	[ -s "$$tmpdir/postmortem/index.json" ] || { echo "post-mortem dump missing"; exit 1; }

# slo-smoke boots uwm-serve with an unmeetable latency SLO, burns the
# budget with real jobs, and requires /v1/alerts to report a firing
# alert before a clean SIGTERM drain.
slo-smoke:
	@tmpdir="$$(mktemp -d)"; \
	trap 'rm -rf "$$tmpdir"' EXIT; \
	$(GO) build -o "$$tmpdir/uwm-serve" ./cmd/uwm-serve; \
	printf '%s' '[{"name":"job-latency","kind":"latency","objective":0.99,"latency_threshold":"1us","min_events":5}]' > "$$tmpdir/slo.json"; \
	"$$tmpdir/uwm-serve" -addr 127.0.0.1:0 -addr-file "$$tmpdir/addr" \
		-workers 1 -slo-config "$$tmpdir/slo.json" -evlog "$$tmpdir/events.jsonl" & \
	serve_pid=$$!; \
	i=0; while [ ! -s "$$tmpdir/addr" ]; do \
		i=$$((i + 1)); [ "$$i" -gt 100 ] && exit 1; sleep 0.1; \
	done; \
	base="http://$$(cat "$$tmpdir/addr")"; \
	for n in 1 2 3 4 5 6 7 8; do \
		curl -fsS -X POST "$$base/v1/jobs?wait=1" \
			-d '{"type":"gate","params":{"gate":"TSX_XOR","random":4}}' >/dev/null || exit 1; \
	done; \
	curl -fsS "$$base/v1/alerts" | grep -q '"state": "firing"' || { echo "alert not firing"; exit 1; }; \
	kill -TERM "$$serve_pid" && wait "$$serve_pid" && \
	grep -q '"event":"alert.fire"' "$$tmpdir/events.jsonl" || { echo "journal missing alert.fire"; exit 1; }

# cluster-smoke stands two uwm-serve backends behind one uwm-gateway:
# a duplicate seeded submission replays byte-identically from the
# result cache, a backend SIGTERMed mid-burst costs zero failed client
# requests, the dead backend shows up in /v1/cluster, and both the
# killed backend and the gateway drain cleanly.
cluster-smoke:
	@tmpdir="$$(mktemp -d)"; \
	trap 'rm -rf "$$tmpdir"' EXIT; \
	$(GO) build -o "$$tmpdir/uwm-serve" ./cmd/uwm-serve; \
	$(GO) build -o "$$tmpdir/uwm-gateway" ./cmd/uwm-gateway; \
	$(GO) build -o "$$tmpdir/uwm-top" ./cmd/uwm-top; \
	"$$tmpdir/uwm-serve" -addr 127.0.0.1:0 -addr-file "$$tmpdir/b1.addr" & \
	b1_pid=$$!; \
	"$$tmpdir/uwm-serve" -addr 127.0.0.1:0 -addr-file "$$tmpdir/b2.addr" & \
	b2_pid=$$!; \
	i=0; while [ ! -s "$$tmpdir/b1.addr" ] || [ ! -s "$$tmpdir/b2.addr" ]; do \
		i=$$((i + 1)); [ "$$i" -gt 100 ] && exit 1; sleep 0.1; \
	done; \
	"$$tmpdir/uwm-gateway" -addr 127.0.0.1:0 -addr-file "$$tmpdir/gw.addr" \
		-backends "$$(cat "$$tmpdir/b1.addr"),$$(cat "$$tmpdir/b2.addr")" \
		-probe-interval 200ms & \
	gw_pid=$$!; \
	i=0; while [ ! -s "$$tmpdir/gw.addr" ]; do \
		i=$$((i + 1)); [ "$$i" -gt 100 ] && exit 1; sleep 0.1; \
	done; \
	gw="http://$$(cat "$$tmpdir/gw.addr")"; \
	seeded='{"type":"gate","seed":42,"params":{"gate":"TSX_XOR","random":4}}'; \
	curl -fsS -X POST "$$gw/v1/jobs?wait=1" -d "$$seeded" -o "$$tmpdir/run1.json" && \
	curl -fsS -X POST "$$gw/v1/jobs?wait=1" -d "$$seeded" -o "$$tmpdir/run2.json" && \
	cmp "$$tmpdir/run1.json" "$$tmpdir/run2.json" && \
	curl -fsS "$$gw/metrics" | grep -q 'uwm_gateway_cache_hits_total 1' || { echo "cache replay broken"; exit 1; }; \
	( sleep 0.15; kill -TERM "$$b1_pid" ) & \
	killer_pid=$$!; \
	for n in 1 2 3 4 5 6 7 8 9 10 11 12; do \
		curl -fsS -X POST "$$gw/v1/jobs?wait=1" \
			-d "{\"type\":\"gate\",\"seed\":$$((100 + n)),\"params\":{\"gate\":\"TSX_XOR\",\"random\":4}}" \
			>/dev/null || { echo "burst request $$n failed during backend loss"; exit 1; }; \
		sleep 0.05; \
	done; \
	wait "$$killer_pid"; \
	wait "$$b1_pid" || { echo "killed backend did not drain cleanly"; exit 1; }; \
	sleep 0.5; \
	curl -fsS "$$gw/v1/cluster" | grep -q '"state": "down"' || { echo "dead backend not in /v1/cluster"; exit 1; }; \
	"$$tmpdir/uwm-top" -addr "$$gw" -once >/dev/null && \
	kill -TERM "$$gw_pid" && wait "$$gw_pid" && \
	kill -TERM "$$b2_pid" && wait "$$b2_pid"

# health-smoke runs the deterministic drift-and-recalibrate scenario:
# drifted noise flagged, exactly one recalibration, live == offline.
health-smoke:
	$(GO) test -run 'TestWorkerDriftRecalibration' -count=1 ./internal/engine

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-report writes a machine-readable evaluation record; compare two
# of them with `make bench-compare OLD=bench/BENCH_x.json NEW=BENCH_y.json`.
bench-report:
	$(GO) run ./cmd/uwm-bench -all -repeat 5 -json $(BENCH_OUT)

bench-compare:
	$(GO) run ./cmd/uwm-bench -compare $(OLD) $(NEW)

clean:
	$(GO) clean ./...
