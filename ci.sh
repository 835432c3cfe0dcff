#!/bin/sh
# CI entry point: formatting, static checks, build, race-enabled tests.
# Mirrors `make ci` for environments without make.
set -eu

echo "== gofmt =="
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== docs link check =="
# Every relative markdown link in the user-facing docs must resolve to
# a file or directory in the tree; external URLs and pure anchors are
# out of scope.
link_fail=0
for f in *.md docs/*.md; do
	[ -f "$f" ] || continue
	case "$f" in
	SNIPPETS.md | PAPERS.md | ISSUE.md) continue ;; # retrieval material, links point at their source repos
	esac
	dir="$(dirname "$f")"
	for link in $(grep -o ']([^)]*)' "$f" | sed 's/^](//;s/)$//'); do
		case "$link" in
		http://* | https://* | mailto:* | \#*) continue ;;
		esac
		target="${link%%#*}"
		[ -z "$target" ] && continue
		if [ ! -e "$dir/$target" ]; then
			echo "$f: broken relative link: $link"
			link_fail=1
		fi
	done
done
if [ "$link_fail" -ne 0 ]; then
	exit 1
fi

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (CI installs it)"
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== concurrency race shard =="
# A second, dedicated race pass over the packages that share mutable
# state across goroutines (worker pool, recorder rings, alert state
# machines, log buckets); -count=2 reruns each test in one process so
# state carried between runs would also surface.
go test -race -count=2 \
	./internal/engine/... ./internal/flightrec ./internal/health \
	./internal/slo ./internal/evlog ./internal/cluster

echo "== hot-path micro-benchmarks =="
# One iteration each of the gate-activation, cache and cpu
# micro-benchmarks, so they keep compiling and running.
go test -run '^$' \
	-bench 'GateOp_|Hierarchy|LRU|Flush|CommittedALU|TimedLoad|SpeculativeWindow|TSXAbortWindow' \
	-benchtime 1x . ./internal/cache ./internal/cpu

echo "== fuzz (10 s per target) =="
# Each fuzz target runs as a fuzzer, not only over its seed corpus.
go test -run '^$' -fuzz '^FuzzParseTimedRead$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/bexpr
go test -run '^$' -fuzz '^FuzzDecodePayload$' -fuzztime 10s ./internal/wmapt
go test -run '^$' -fuzz '^FuzzDecodeSpec$' -fuzztime 10s ./internal/circopt
go test -run '^$' -fuzz '^FuzzParseJSONL$' -fuzztime 10s ./internal/traceanalyze

echo "== perfbench (frozen API) =="
# perfbench is its own module, so the root go test ./... never reaches
# it; removing a symbol it imports must fail here, not in a bench run.
(cd perfbench && go vet ./... && go test ./...)

echo "== uwm-serve smoke =="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/uwm-serve" ./cmd/uwm-serve
go build -o "$tmpdir/uwm-top" ./cmd/uwm-top
go build -o "$tmpdir/uwm-trace" ./cmd/uwm-trace
"$tmpdir/uwm-serve" -addr 127.0.0.1:0 -addr-file "$tmpdir/addr" \
	-postmortem-dir "$tmpdir/postmortem" &
serve_pid=$!
i=0
while [ ! -s "$tmpdir/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "uwm-serve never wrote its address file"
		kill "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
go run ./examples/serve -addr "$(cat "$tmpdir/addr")" -request-id smoke-trace-1
# The job's flight-recording resolves by the caller-chosen request id,
# straight from the live server into the offline analyzer.
"$tmpdir/uwm-trace" -from "http://$(cat "$tmpdir/addr")" -job smoke-trace-1 >/dev/null
"$tmpdir/uwm-trace" -health -from "http://$(cat "$tmpdir/addr")" -job smoke-trace-1 >/dev/null
"$tmpdir/uwm-top" -addr "http://$(cat "$tmpdir/addr")" -once >/dev/null
kill -TERM "$serve_pid"
wait "$serve_pid" # set -e: a non-zero exit here means the drain was not clean
if [ ! -s "$tmpdir/postmortem/index.json" ]; then
	echo "graceful drain left no post-mortem dump"
	exit 1
fi

echo "== slo burn smoke =="
# Boot with an unmeetable latency SLO, burn the budget with real jobs,
# and require the burn-rate alert to be firing before a clean drain.
cat > "$tmpdir/slo.json" <<'EOF'
[{"name":"job-latency","kind":"latency","objective":0.99,"latency_threshold":"1us","min_events":5}]
EOF
"$tmpdir/uwm-serve" -addr 127.0.0.1:0 -addr-file "$tmpdir/addr2" \
	-workers 1 -slo-config "$tmpdir/slo.json" -evlog "$tmpdir/events.jsonl" &
slo_pid=$!
i=0
while [ ! -s "$tmpdir/addr2" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "uwm-serve (slo smoke) never wrote its address file"
		kill "$slo_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
slo_base="http://$(cat "$tmpdir/addr2")"
for n in 1 2 3 4 5 6 7 8; do
	curl -fsS -X POST "$slo_base/v1/jobs?wait=1" \
		-d '{"type":"gate","params":{"gate":"TSX_XOR","random":4}}' >/dev/null
done
curl -fsS "$slo_base/v1/alerts" | grep -q '"state": "firing"' || {
	echo "alert not firing after the slo burn"
	kill "$slo_pid" 2>/dev/null || true
	exit 1
}
kill -TERM "$slo_pid"
wait "$slo_pid" # set -e: a non-zero exit here means the drain was not clean
grep -q '"event":"alert.fire"' "$tmpdir/events.jsonl" || {
	echo "event journal missing the alert.fire record"
	exit 1
}

echo "== cluster smoke =="
# Two uwm-serve backends behind one uwm-gateway: a duplicate seeded
# submission must replay byte-identically from the result cache, the
# example client and uwm-trace must work through the gateway unchanged,
# a backend SIGTERMed mid-burst must cost zero failed client requests
# (and drain cleanly itself), the dead backend must show up in
# /v1/cluster, and the gateway must drain cleanly on SIGTERM.
go build -o "$tmpdir/uwm-gateway" ./cmd/uwm-gateway
"$tmpdir/uwm-serve" -addr 127.0.0.1:0 -addr-file "$tmpdir/b1.addr" &
b1_pid=$!
"$tmpdir/uwm-serve" -addr 127.0.0.1:0 -addr-file "$tmpdir/b2.addr" &
b2_pid=$!
i=0
while [ ! -s "$tmpdir/b1.addr" ] || [ ! -s "$tmpdir/b2.addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "cluster smoke: backends never wrote their address files"
		kill "$b1_pid" "$b2_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
"$tmpdir/uwm-gateway" -addr 127.0.0.1:0 -addr-file "$tmpdir/gw.addr" \
	-backends "$(cat "$tmpdir/b1.addr"),$(cat "$tmpdir/b2.addr")" \
	-probe-interval 200ms &
gw_pid=$!
i=0
while [ ! -s "$tmpdir/gw.addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "cluster smoke: gateway never wrote its address file"
		kill "$gw_pid" "$b1_pid" "$b2_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
gw="http://$(cat "$tmpdir/gw.addr")"
# Duplicate seeded job: the repeat is served from the cache and is
# byte-identical to the first run.
seeded='{"type":"gate","seed":42,"params":{"gate":"TSX_XOR","random":4}}'
curl -fsS -X POST "$gw/v1/jobs?wait=1" -d "$seeded" -o "$tmpdir/run1.json"
curl -fsS -X POST "$gw/v1/jobs?wait=1" -d "$seeded" -o "$tmpdir/run2.json"
cmp "$tmpdir/run1.json" "$tmpdir/run2.json" || {
	echo "cached repeat is not byte-identical"
	exit 1
}
curl -fsS "$gw/metrics" | grep -q 'uwm_gateway_cache_hits_total 1' || {
	echo "cache hit not visible in gateway metrics"
	exit 1
}
# The example client and the trace analyzer work through the gateway
# exactly as against a single uwm-serve.
go run ./examples/serve -addr "$(cat "$tmpdir/gw.addr")" -request-id gw-smoke-1
"$tmpdir/uwm-trace" -from "$gw" -job gw-smoke-1 >/dev/null
# Failover burst: SIGTERM one backend mid-burst; every client request
# must still succeed, and the killed backend must drain cleanly.
(
	sleep 0.15
	kill -TERM "$b1_pid"
) &
killer_pid=$!
for n in 1 2 3 4 5 6 7 8 9 10 11 12; do
	curl -fsS -X POST "$gw/v1/jobs?wait=1" \
		-d "{\"type\":\"gate\",\"seed\":$((100 + n)),\"params\":{\"gate\":\"TSX_XOR\",\"random\":4}}" \
		>/dev/null || {
		echo "burst request $n failed during backend loss"
		exit 1
	}
	sleep 0.05
done
wait "$killer_pid"
wait "$b1_pid" # set -e: non-zero means the SIGTERMed backend did not drain cleanly
sleep 0.5      # > probe interval: the prober confirms the death
curl -fsS "$gw/v1/cluster" | grep -q '"state": "down"' || {
	echo "/v1/cluster does not reflect the dead backend"
	exit 1
}
"$tmpdir/uwm-top" -addr "$gw" -once >/dev/null
kill -TERM "$gw_pid"
wait "$gw_pid" # set -e: non-zero means the gateway did not drain cleanly
kill -TERM "$b2_pid"
wait "$b2_pid"

echo "== gate-health smoke =="
# The deterministic drift scenario: a drifted-noise machine must be
# flagged by its worker's monitor and recover via exactly one
# recalibration, with live and offline verdicts agreeing.
go test -run 'TestWorkerDriftRecalibration' -count=1 ./internal/engine

echo "== bench report (quick sizes) =="
go run ./cmd/uwm-bench -all -repeat 5 -json BENCH_ci.json >/dev/null

echo "== gate-health bench report =="
go run ./cmd/uwm-bench -health -json BENCH_health.json >/dev/null

echo "== circuit pipeline bench report =="
go run ./cmd/uwm-bench -circuit -json BENCH_circuit.json >/dev/null

baseline="$(ls bench/BENCH_*.json 2>/dev/null | sort | tail -n 1)"
if [ -n "$baseline" ]; then
	echo "== perf comparison vs $baseline (report-only) =="
	go run ./cmd/uwm-bench -compare "$baseline" BENCH_ci.json ||
		echo "perf comparator reported significant regressions (soft gate: not failing CI)"
fi

echo "CI passed"
