GO ?= go
BENCH_OUT ?= BENCH_$(shell date +%Y%m%d-%H%M%S).json

# The CI pipeline is defined once, in ci.sh: `make ci` runs all of it
# and `make STEP` runs one of its steps alone.
CI_STEPS := fmt-check vet docs-links staticcheck build race race-shard micro-bench fuzz perfbench serve-smoke slo-smoke cluster-smoke health-smoke bench-reports

.PHONY: all test ci $(CI_STEPS) bench bench-report bench-compare clean

all: build

test:
	$(GO) test ./...

ci:
	sh ci.sh

$(CI_STEPS):
	sh ci.sh $@

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
