# Developer entry points mirroring .github/workflows/ci.yml — `make ci`
# runs exactly what CI runs.

GO ?= go

.PHONY: build test loc race vet analyze staticcheck govulncheck lint fmt-check docs-lint bench bench-smoke bench-backends fuzz-smoke cover ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Non-test Go lines outside bench/ (ROADMAP's LOC bar), the analyzer
# testdata fixtures that count among them, then the lines inside bench/.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1 | awk '{print $$1, "outside bench/"}'
	@find ./internal/analysis -path '*/testdata/*' -name '*.go' -not -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1, "of them internal/analysis/*/testdata fixtures"}'
	@find ./bench -name '*.go' -not -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1, "inside bench/"}'

# Race tests pin GOMAXPROCS>=4 so parallel view materialization,
# maintenance and shard-parallel candidate seeding truly interleave even
# when the host (or a dev container) exposes one CPU.
race:
	GOMAXPROCS=4 $(GO) test -race ./...

vet:
	$(GO) vet ./...

# Contract analyzers (cmd/gvcheck): the four project-specific checkers —
# readeralias, scratchescape, mutexguard, snapshotonce — that
# mechanically enforce the Reader aliasing, scratch-escape, mutex-guard
# and RCU-snapshot invariants (ARCHITECTURE.md §Invariants & static
# analysis). The vettool is built once, then go vet drives it per
# package — test files included — with prebuilt export data, so the
# sweep is fast and fully offline. Zero findings is the merge bar;
# justified exceptions carry //gvcheck:<directive> <why> in source.
GVCHECK = bin/gvcheck
analyze:
	$(GO) build -o $(GVCHECK) ./cmd/gvcheck
	$(GO) vet -vettool=$(abspath $(GVCHECK)) ./...

# Third-party linters, pinned by module version and run via `go run
# tool@version` so nothing is vendored or installed. Both need the
# module proxy on first use, so the targets probe availability and skip
# with a notice when offline (CI always runs them for real).
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@v0.5.1
staticcheck:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else \
		echo "staticcheck unavailable (offline module cache); skipping"; fi

GOVULNCHECK = golang.org/x/vuln/cmd/govulncheck@v1.1.3
govulncheck:
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK) ./...; \
	else \
		echo "govulncheck unavailable (offline module cache); skipping"; fi

lint: staticcheck govulncheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Docs lint (cmd/doccheck, stdlib only): every relative markdown link —
# file and #anchor — must resolve, every exported symbol of the facade
# and contract packages must carry a doc comment, and every flag
# cmd/gvserve registers must be mentioned in OPERATIONS.md, so
# godoc, the markdown layer and the CLI docs can't silently rot.
# Example* functions are compiled and output-verified by `make test`
# like any other test.
DOC_PKGS = .,internal/graph,internal/serve,internal/store,internal/view,internal/core,internal/pattern,internal/simulation,internal/analysis
FLAG_CMDS = cmd/gvserve
docs-lint:
	$(GO) run ./cmd/doccheck -pkgs '$(DOC_PKGS)' -flags '$(FLAG_CMDS)' -flagsdoc OPERATIONS.md README.md ARCHITECTURE.md OPERATIONS.md ROADMAP.md

# Full kernel benchmark sweep: every Fig. 8 figure, the parallel engine
# worker sweeps and the graph and store kernels. Slow; see
# bench-smoke for the CI-sized subset. The end-to-end benchmark is
# `go run ./bench` (BENCHMARK.json, bench/README.md).
bench:
	$(GO) test -run 'BenchmarkNone' -bench . -benchmem ./...

# The CI smoke subset (CI runs exactly this target): one iteration of
# the Fig. 8(a) figure runner, the parallel materialize sweep and the
# necklace MatchJoin kernel; the graph-backend sweep at GOMAXPROCS=4,
# where shard-parallel seeding interleaves even on a one-CPU host; the
# WAL append and recovery replay kernels; plus the snapshot-build kernel
# (publish ns and B/op vs dirty fraction at 50k/200k, beside the
# from-scratch build it replaces).
bench-smoke:
	$(GO) test -run 'BenchmarkNone' -bench 'Fig8a' -benchtime 1x ./...
	$(GO) test -run 'BenchmarkNone' -bench 'MaterializeParallel' -benchtime 1x ./...
	$(GO) test -run 'BenchmarkNone' -bench 'MatchJoin/necklace' -benchtime 1x .
	GOMAXPROCS=4 $(GO) test -run 'BenchmarkNone' -bench 'SimFrozen|AnswerFrozen|AnswerSharded|ShardSplit' -benchtime 1x ./...
	$(GO) test -run 'BenchmarkNone' -bench 'WALAppend|RecoveryReplay' -benchtime 1x ./internal/store
	$(GO) test -run 'BenchmarkNone' -bench 'PublishDirtyFraction|PublishFromScratch' -benchtime 3x -benchmem ./internal/graph

# Graph-backend sweep over mutable | shards=k: direct simulation (the
# mutex-free label partition on the seeding loop), the
# materialize+answer pipeline over worker counts and over shard counts
# (pre-built snapshots), plus the O(|V|+|E|) splitter. GOMAXPROCS=4:
# shard-parallel seeding needs real cores to show.
bench-backends:
	GOMAXPROCS=4 $(GO) test -run 'BenchmarkNone' -bench 'SimFrozen|AnswerFrozen|AnswerSharded|ShardSplit' -benchmem ./...

# Run each native fuzz target briefly (the CI smoke; seed corpora under
# testdata/fuzz always run as plain tests via `make test`).
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzShardRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzRefreeze$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzEquivalentPreds$$' -fuzztime $(FUZZTIME) ./internal/pattern
	$(GO) test -run '^$$' -fuzz '^FuzzParsePattern$$' -fuzztime $(FUZZTIME) ./internal/pattern
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotManifest$$' -fuzztime $(FUZZTIME) ./internal/store

# Coverage profile + function summary (CI uploads coverage.out).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

ci: build vet analyze fmt-check docs-lint race bench-smoke lint
