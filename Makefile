# Development entry points. `make check` is the full pre-merge gate.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build test vet staticcheck race fuzz xbench perf chaos chaos-nightly loadgen-smoke cover loc clean

check: vet staticcheck build race fuzz xbench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it); locally it
# is optional, so a bare toolchain still passes `make check`.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Covers internal/solver's state-checksum, reference-kernel and scratch-
# lifetime tests, which drive forEachPatch over lock-free flux registers and
# per-patch scratch: their one-writer rules are checked here, not assumed.
race:
	$(GO) test -race ./...

# Short deterministic fuzz passes over the wire codec and the server's
# request loop (one target per invocation, as the fuzz engine requires).
# FuzzSpanWireHeader covers the trace-context request-header extension
# (decode∘encode identity); the span-log golden test runs under `race`.
# FuzzTenantKey pins the tenant-namespace codec: hostile tenant ids are
# rejected, never mangled into another tenant's key space.
# FuzzStagingWAL / FuzzStagingSnapshot hammer the durability layer's
# recovery scanners with hostile and truncated images: accepted inputs
# must satisfy the recover∘replay identity, everything else is rejected
# without panicking.
fuzz:
	$(GO) test ./internal/staging -run '^$$' -fuzz FuzzDecodeBlock -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staging -run '^$$' -fuzz FuzzReadRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staging -run '^$$' -fuzz FuzzPoolManifest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staging -run '^$$' -fuzz FuzzSpanWireHeader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staging -run '^$$' -fuzz FuzzTenantKey -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staging -run '^$$' -fuzz FuzzStagingWAL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staging -run '^$$' -fuzz FuzzStagingSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/spec -run '^$$' -fuzz FuzzSpecParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/journal -run '^$$' -fuzz FuzzJournal -fuzztime $(FUZZTIME)

# The benchmark harness is its own module (benchmarks/go.mod), so the root
# ./... patterns above never see it: vet it and run its quick smoke test
# from its own directory.
xbench:
	cd benchmarks && $(GO) vet ./... && $(GO) test ./...

# Performance: all four xbench workloads in their quick size with the
# per-layer ledger on. Result lines land in xbench-quick.txt, one Perfetto-
# loadable trace per workload in xbench-trace/. For numbers worth comparing
# run `bash benchmarks/run.sh --workload W --seconds 20` (benchmarks/README.md);
# for a CPU profile of one kernel, `go test . -bench NAME -cpuprofile FILE`.
perf:
	bash -o pipefail -c 'bash benchmarks/run.sh --quick --trace 1 --trace-dir xbench-trace | tee xbench-quick.txt'

# A seeded chaos sweep over the replicated pool + engine with all
# cross-layer invariants armed; any violation shrinks to a repro under
# CHAOS_OUT and fails the target.
CHAOS_SEEDS ?= 25
CHAOS_OUT ?= chaos-repros
chaos:
	$(GO) run ./cmd/xlayer chaos -seeds $(CHAOS_SEEDS) -steps 8 -out $(CHAOS_OUT)

# The nightly sweep: CHAOS_SEEDS schedules from seed CHAOS_START, each at the
# step count its seed generates (no -steps), with the JSON report written to
# chaos-report.json and shrunk repros under CHAOS_OUT. The chaos-nightly
# workflow passes its rotating seed window in.
CHAOS_START ?= 0
chaos-nightly:
	$(GO) run ./cmd/xlayer chaos -seeds $(CHAOS_SEEDS) -start-seed $(CHAOS_START) -out $(CHAOS_OUT) -json > chaos-report.json

# The multi-tenant load harness in its smoke size: 8 tenant workflows
# closed-loop against a shared 3-server pool with admission control on. Fails
# on any cross-tenant manifest leak, audit shortfall or checksum mismatch;
# the report and the per-tenant step logs are written either way.
loadgen-smoke:
	$(GO) run ./cmd/xlayer loadgen -short -log-dir loadgen-logs -out loadgen-report.json

# Coverage summary for the CI artifact: per-function table plus the total.
cover:
	$(GO) test ./... -count=1 -coverprofile=coverage.out -covermode=atomic
	$(GO) tool cover -func=coverage.out | tee coverage-summary.txt

# The root module's non-test Go line count, as ROADMAP.md and CHANGES.md
# quote it (cmd/, examples/ and internal/ included; benchmarks/ is its own
# module and is not).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' | xargs wc -l | tail -1

clean:
	$(GO) clean ./...
	rm -rf .xbench xbench-trace xbench-quick.txt loadgen-logs loadgen-report.json chaos-report.json
