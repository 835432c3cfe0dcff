#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload gates --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write (Go build cache, the binary, per-seed digests, traced runs'
# spans) stays under .bench_build in the root, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/engine" ]]; then
	echo "perfbench: run from the root of a uwm checkout (no go.mod and internal/engine here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/tmp" "$out/config" "$out/gopath"

# Keep the toolchain's caches and state inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --state "$out/perfbench" "$@"
