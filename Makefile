# Development and CI entry points. `make ci` is the full gate; every step
# of .github/workflows/ci.yml is one of its targets, so the two lists
# cannot drift. Every target except `bench` works offline with a bare
# Go >= 1.24 toolchain; `bench` also needs bash.

GO ?= go

.PHONY: all build fmt vet lint lintfix-audit test race benchsmoke check fuzzsmoke smoke bench ci

all: ci

# _perfbench is its own module, so `./...` skips it; build, vet and test
# compile it too, so a change that breaks an API the benchmark calls fails
# here rather than in `make bench`. Its one package is a command, which
# `go build` would write into _perfbench/, hence -o /dev/null.
build:
	$(GO) build ./...
	$(GO) -C _perfbench build -o /dev/null ./...

# Fail (and list offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...
	$(GO) -C _perfbench vet ./...

# Project-specific static analysis: the five per-file rules (determinism,
# float-equality hygiene, unit-family safety, panic prefixes, dropped
# errors) plus the four interprocedural flow analyzers (detflow, clockonly,
# lockflow, leakcheck — internal/lint/flow, DESIGN.md §6 and §11), run
# module-wide so taint is chased across package boundaries.
# internal/clock/real.go is the single sanctioned wall-clock read (live
# serving injects it; results never depend on it), exempted by path.
lint:
	$(GO) run ./cmd/odinlint -exempt nondeterminism=internal/clock/real.go ./...

# Inventory of every inline //lint:allow directive in the tree, with file,
# line, and justification. Review this when auditing the determinism
# contract: each line is a deliberate, argued exception, and the list
# should only ever grow with a PR that argues the new entry.
# The doubled-comment filter drops documentation that merely shows the
# directive syntax (a `//lint:allow` inside a `//` doc line).
lintfix-audit:
	@grep -rn --include='*.go' -E '//lint:allow [a-z]' . \
		| grep -v '_test.go' | grep -vE '//.*//lint:allow' \
		|| echo "no allow directives"

# The one plain and the one race-detector pass over every package. The
# fixed-seed property suites and the goldens (internal/check) run here.
test:
	$(GO) test ./...
	$(GO) -C _perfbench test ./...

race:
	$(GO) test -race ./...

# Compile-and-run smoke for every benchmark (one iteration each) so bench
# code cannot rot without CI noticing.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Correctness harness (internal/check), randomized half: the property
# suites at a fresh seed so CI keeps hunting new counterexamples (the
# fixed-seed half runs in `test`). Any failure prints one
# ODINCHECK_SEED=... line that replays it exactly; see README
# "Correctness harness".
check:
	ODINCHECK_SEED=$$(od -An -N8 -tu8 /dev/urandom | tr -d ' ') \
		ODINCHECK_TRIALS=25 $(GO) test -count=1 -run 'Prop' ./...

# Native fuzzing, time-boxed: each fuzz target runs for 10 s from its seed
# corpus (testdata/fuzz/<target> in its package; `make test` replays those
# seeds on every run). A failing input is written next to the seeds; fix
# the code it exposes and commit the input as a regression seed. Go spends
# up to 60 s by default minimizing each new interesting input, during
# which the target executes nothing new; 1 s keeps most of the 10 s for
# fuzzing.
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParseInfer$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzAdminChips$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzEventsResume$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzPolicyUnmarshal$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/policy
	$(GO) test -run='^$$' -fuzz='^FuzzNetworkUnmarshal$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/mlp

# The decision-log checksum the 1024-chip smoke replay below must print.
# Comparing worker counts alone would pass a routing change that moves
# both the same way.
FLEET_CHECKSUM = checksum=0xac76fa0f7b08713c

# The SHA-256 of the Chrome trace `odinsim trace -model resnet18 -runs 4`
# writes. Its layer spans carry each layer's strategy and evaluation count,
# which the controller's run bookkeeping rebuilds. Like ODINSIM_SHA256
# below, the value holds on GOARCH amd64.
TRACE_SHA256 = 46e973ce598665567f30b03bc8ff7cdb59b4f29fe59565a6c19ffc845373df3f

# The SHA-256 values `odinsim all` must render: one per experiment section
# of the text output (split at its `==> ` headers, `<== ` lines removed),
# then the whole `-json all` output. The first line records GOARCH: the Go
# spec lets the compiler fuse x*y+z into one FMA instruction, gc does so on
# arm64, and that moves the output, so the values hold on amd64.
ODINSIM_SHA256 = cmd/odinsim/testdata/all.sha256

# End-to-end contracts checked from the command line, on binaries built
# once. In order:
#   - two replays of one load trace at nominal rate (30% of fleet capacity)
#     shed nothing and log byte-identical decisions;
#   - a 1024-chip drift-routed replay prints one decision-log checksum at
#     1 and at 8 workers, and it is FLEET_CHECKSUM;
#   - the canonical pulse event log of a churn-free replay is
#     byte-identical at 1 and at 8 workers;
#   - `odinsim all` renders the same bytes with the decision cache on and
#     off at 1 worker, and on at 1 and at 4 workers (opt-compare, the
#     strategy head-to-head, is one of its experiments);
#   - each experiment's section of that output, and `odinsim -json all`,
#     hash to the values in ODINSIM_SHA256, so a failure names the
#     experiment that moved;
#   - `odinsim -cache off -json all` renders the pinned JSON bytes too (the
#     JSON engine carries the cache switch itself);
#   - a multi-worker `odinsim` run is clean under the race detector;
#   - `odinsim trace` renders its audit table and writes a Chrome trace
#     whose SHA-256 is TRACE_SHA256;
#   - the disabled-instrumentation overhead guards (obs_guard_test.go,
#     pulse_guard_test.go), armed: a nil tracer or bus must stay one
#     pointer test per site.
# The runner's `<== ... done in Xs` footer carries wall-clock time, the one
# line of `odinsim` output that legitimately differs between runs.
smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/odinsim ./cmd/odinserve; \
	sim=$$tmp/odinsim; srv=$$tmp/odinserve; \
	echo "smoke: replay -verify -max-shed 0"; \
	$$srv replay -models VGG11,VGG11 -requests 200 -verify -max-shed 0; \
	echo "smoke: 1024-chip replay checksum, workers 1 vs 8 and the pinned value"; \
	for w in 1 8; do \
		$$srv replay -models VGG11 -fleet 1024 -workers $$w -requests 2048 -router drift > $$tmp/fleet$$w.out; \
		grep '^checksum=' $$tmp/fleet$$w.out > $$tmp/fleet$$w.txt; \
	done; \
	cmp $$tmp/fleet1.txt $$tmp/fleet8.txt; \
	echo '$(FLEET_CHECKSUM)' | cmp - $$tmp/fleet1.txt; \
	echo "smoke: pulse log, workers 1 vs 8"; \
	for w in 1 8; do \
		$$srv replay -models VGG11 -fleet 8 -workers $$w -requests 256 -router drift -pulse-log $$tmp/pulse$$w.log > /dev/null; \
	done; \
	cmp $$tmp/pulse1.log $$tmp/pulse8.log; \
	echo "smoke: odinsim all, cache on/off at workers 1, cache on at workers 1 vs 4"; \
	$$sim -cache on -workers 1 all > $$tmp/on1.out; \
	$$sim -cache off -workers 1 all > $$tmp/off1.out; \
	$$sim -cache on -workers 4 all > $$tmp/on4.out; \
	for f in on1 off1 on4; do grep -v '^<== ' $$tmp/$$f.out > $$tmp/$$f.txt; done; \
	cmp $$tmp/on1.txt $$tmp/off1.txt; \
	cmp $$tmp/on1.txt $$tmp/on4.txt; \
	echo "smoke: odinsim all per experiment and -json all against $(ODINSIM_SHA256)"; \
	$$sim -workers 2 -json all > $$tmp/all.json; \
	mkdir $$tmp/sec; \
	awk -v d=$$tmp/sec '/^==> /{ if (f) close(f); n++; id = $$NF; gsub(/[()]/, "", id); f = sprintf("%s/%02d-%s", d, n, id) } { print > f }' $$tmp/on1.txt; \
	{ echo "GOARCH $$($(GO) env GOARCH)"; (cd $$tmp/sec && sha256sum *); (cd $$tmp && sha256sum all.json); } > $$tmp/all.sha256; \
	diff $(ODINSIM_SHA256) $$tmp/all.sha256; \
	echo "smoke: odinsim -cache off -json all against the pinned -json all"; \
	$$sim -cache off -workers 2 -json all > $$tmp/alloff.json; \
	cmp $$tmp/all.json $$tmp/alloff.json; \
	echo "smoke: odinsim -race -workers 4"; \
	$(GO) run -race ./cmd/odinsim -workers 4 tab1 fig3 fig4 overhead > /dev/null; \
	echo "smoke: odinsim trace"; \
	$$sim trace -model resnet18 -runs 4 -out $$tmp/trace.json > /dev/null; \
	sha256sum < $$tmp/trace.json | cut -d' ' -f1 > $$tmp/trace.sha; \
	echo '$(TRACE_SHA256)' | cmp - $$tmp/trace.sha; \
	echo "smoke: overhead guards"; \
	ODIN_OVERHEAD_GUARD=1 $(GO) test -count=1 -run 'TestDisabled(Obs|Pulse)OverheadGuard' .

# The repository benchmark (_perfbench/, declared in BENCHMARK.json) on its
# two gated workloads, per-layer metrics from a traced run. `--trace 0`
# prints the end-to-end metrics instead; _perfbench/LAYERS.md names every
# metric.
bench:
	bash _perfbench/run.sh --workload sim-fig8 --trace 1
	bash _perfbench/run.sh --workload replay-fleet --trace 1

ci: build fmt vet lint lintfix-audit test race benchsmoke check fuzzsmoke smoke
