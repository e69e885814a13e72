# Convenience targets for the reproduction. Everything is stdlib-only Go;
# `go build ./...` with Go >= 1.22 is the only real requirement.

GO ?= go

# Pinned versions for the external linters CI installs. Locally, targets
# degrade to a notice when the tool is absent (the repo builds offline);
# set LINT_STRICT=1 — CI does — to make a missing tool a failure.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3
LINT_STRICT ?=

.PHONY: all build vet test race cover fuzz \
	experiments examples clean lint analyzers staticcheck govulncheck \
	fuzz-smoke chaos chaos-disk server-smoke lint-race

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full lint gate: stock go vet, the repo's contract analyzers (lockcheck,
# walcheck, errwrapcheck, viewcheck, releasecheck, ctxcheck via go vet
# -vettool), staticcheck, govulncheck.
lint: vet analyzers staticcheck govulncheck

# Build the bundled analyzer binary and drive it through the vet protocol
# so package enumeration and caching match stock go vet. The standalone
# -summary run afterwards prints the per-analyzer diagnostic counts
# (zeros included), so the gate's coverage is visible in the log.
analyzers:
	$(GO) build -o bin/repro-vet ./tools/analyzers/cmd/repro-vet
	$(GO) vet -vettool=$(CURDIR)/bin/repro-vet ./...
	./bin/repro-vet -summary ./...

# Race-enabled tests for the packages the flow-aware analyzers guard:
# the admission/release paths (server), the supervisor state machine,
# and the ReadView-scoped query engine. The race build tag also widens
# timing budgets in latency-sensitive tests (see internal/match).
lint-race:
	$(GO) test -race -count=1 ./internal/server ./internal/supervise ./internal/match

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif [ -n "$(LINT_STRICT)" ]; then \
		echo "staticcheck not installed (want $(STATICCHECK_VERSION)); LINT_STRICT set" >&2; exit 1 ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))" ; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	elif [ -n "$(LINT_STRICT)" ]; then \
		echo "govulncheck not installed (want $(GOVULNCHECK_VERSION)); LINT_STRICT set" >&2; exit 1 ; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))" ; \
	fi

test:
	$(GO) test ./...

# Named-test gates run through tools/run-named-tests.sh, which fails when
# a listed test did not run — `go test -run` alone passes on no match.
RUN_NAMED = GO=$(GO) bash tools/run-named-tests.sh

# Supervisor fault-injection stress under the race detector: concurrent
# writers/readers/scrubber driven through injected WAL faults, asserting
# the full Healthy→Degraded→Recovering→Healthy cycle, no corrupt reads,
# and zero loss of acknowledged commits, plus concurrent container
# appends that must take distinct rdf:_n indices; then the crash-point
# matrix and checkpoint windows at their sampled (-short) depth.
chaos:
	TESTS='TestChaosCycle TestDurabilityFaultDegradesThenRecovers TestDegradedReadsWhileWritesRejected TestAppendToContainerConcurrent' \
		$(RUN_NAMED) -race -count=3 ./internal/supervise/ ./internal/core/
	TESTS='TestDirCrashMatrix TestDirCheckpointCrashWindows' \
		$(RUN_NAMED) -race -short -count=1 ./internal/core/

# Disk-pressure chaos for the WAL: the crash-point matrix at full depth
# (every byte of a one-segment log, every third across rotating
# segments, with and without group commit) and the checkpoint crash
# windows, the supervisor-level ENOSPC chaos cycle
# (injected no-space and partial writes under concurrent load,
# asserting zero acked-commit loss and automatic return to Healthy),
# then an end-to-end rdfbench drill against a live rdfserve with write
# and ENOSPC faults armed — every injected fault must surface as a
# typed 507/503, never a 500.
chaos-disk:
	TESTS='TestDirCrashMatrix TestDirCheckpointCrashWindows' \
		$(RUN_NAMED) -race -count=1 ./internal/core/
	TESTS='TestChaosDiskENOSPC TestHardBudgetDegradesAndSelfHeals TestDiskRecoveryNeverReachesFailed' \
		$(RUN_NAMED) -race -count=1 ./internal/supervise/
	$(GO) run ./cmd/rdfbench -conns 32 -duration 3s -burst 64 \
		-wal-segment-bytes 4096 -wal-soft-bytes 65536 -chaos-wal-enospc-rate 0.01

race:
	$(GO) test -race ./...

# Serving-layer smoke: a short self-serve chaos bench (mixed multi-
# tenant load with WAL fault injection, a synchronized burst far above
# admission capacity, drain under load — rdfbench fails on any corrupt
# read, hung request, or an unrejected burst), then the server package
# under the race detector.
server-smoke:
	$(GO) run ./cmd/rdfbench -conns 200 -duration 3s -burst 96 -max-inflight 16
	$(GO) test -race -count=1 ./internal/server/

cover:
	$(GO) test -cover ./...

# Short fuzz passes over every fuzz target (regression corpora run in
# plain `make test` already).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/ntriples
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/rdfxml
	$(GO) test -fuzz=FuzzParseObject -fuzztime=30s ./internal/rdfterm
	$(GO) test -fuzz=FuzzCanonical -fuzztime=30s ./internal/rdfterm
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=30s ./internal/match
	$(GO) test -fuzz=FuzzParseFilter -fuzztime=30s ./internal/match
	$(GO) test -fuzz=FuzzTableOps -fuzztime=30s ./internal/reldb
	$(GO) test -fuzz=FuzzScan -fuzztime=30s ./internal/wal

# CI smoke slice of the fuzz targets: the parser-facing surfaces, the
# table heap (operation sequences checked against a []Row model) and the
# WAL scanner (arbitrary segment bytes), ~30s each, enough to catch fresh
# panics without owning a CI lane for an hour.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseObject -fuzztime=30s ./internal/rdfterm
	$(GO) test -fuzz=FuzzCanonical -fuzztime=30s ./internal/rdfterm
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/rdfxml
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=30s ./internal/match
	$(GO) test -fuzz=FuzzParseFilter -fuzztime=30s ./internal/match
	$(GO) test -fuzz=FuzzTableOps -fuzztime=30s ./internal/reldb
	$(GO) test -fuzz=FuzzScan -fuzztime=30s ./internal/wal

# Regenerate the measured tables of EXPERIMENTS.md (the blocks between
# its experiments markers) over the paper's size sweep, 10 k to 5 M
# triples. The 5 M point loads one system at a time and takes minutes.
experiments:
	$(GO) test ./internal/experiments -run TestExperimentsDoc -v -timeout 0 -args -update

# Run every example. The deterministic ones must print their committed
# examples/<name>/want.txt byte for byte; uniprot prints timings, so it
# is only run.
EXAMPLES_PINNED = quickstart intelligence network provenance

examples:
	@mkdir -p bin
	@for e in $(EXAMPLES_PINNED); do \
		echo "examples/$$e"; \
		$(GO) run ./examples/$$e > bin/example-$$e.txt && \
			diff -u examples/$$e/want.txt bin/example-$$e.txt || exit 1; \
	done
	$(GO) run ./examples/uniprot -triples 10000

clean:
	$(GO) clean ./...
