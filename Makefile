.PHONY: ci vet fmt-check tidy-check lint lint-fix lint-sarif build test race cover cover-update bench bench-test benchmark-module examples examples-sweeps crash fuzz load golden load-soak

# ci is the tier-1 gate: vet, formatting and go.mod hygiene, the
# project-specific invariant linter, build everything, the full test
# suite under the race detector (the concurrency contract in
# internal/sim's package doc is enforced here, not just documented),
# then per-package coverage floors. picl-lint exits nonzero on any
# unsuppressed diagnostic, so a determinism/epoch/lock violation fails
# the build exactly like a vet error. The test suite also pins every
# rendered figure and table against the model registry
# (internal/golden) and every substrate body's allocations per 1,000
# operations (internal/perf). load boots a real picl-simd and gates the
# served bytes against the same registry. benchmark-module vets and
# tests the separate benchmark/ module, which the root-level go
# commands never reach. examples runs the fast examples, each of which
# exits nonzero on a violated guarantee. Nothing here compares
# wall-clock time: benchmark/ is the one timing harness.
ci: vet fmt-check tidy-check lint build race cover benchmark-module examples crash fuzz load

vet:
	go vet ./...

# fmt-check fails on any file gofmt would rewrite (CI never reformats;
# it only refuses).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# tidy-check fails if go.mod/go.sum are not tidy (the module is
# stdlib-only; this keeps it that way visibly).
tidy-check:
	go mod tidy -diff

# lint runs picl-lint (see internal/lint and DESIGN.md "Static
# analysis") over every non-test package in the module. Stale
# //lint:ignore directives fail the gate too.
lint:
	go run ./cmd/picl-lint ./...

# lint-fix applies picl-lint's mechanical rewrites (eidcmp helper
# calls) in place, then fails if the tree changed — run it locally to
# fix, while in CI it proves the committed tree and the autofixes
# cannot drift apart.
lint-fix:
	go run ./cmd/picl-lint -fix ./... || true
	git diff --exit-code

# lint-sarif writes the machine-readable finding report CI uploads for
# PR annotations. picl-lint exits 1 on findings; the report is written
# either way, so the exit code is surfaced by the lint target, not here.
lint-sarif:
	go run ./cmd/picl-lint -sarif picl-lint.sarif ./... || true

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# cover runs the suite in atomic coverage mode and gates the
# per-package statement coverage against the floors in COVER_FLOOR.txt.
# Re-record deliberately (after adding tests or packages) with
# `make cover-update`; never lower a floor just to pass.
cover:
	go test -covermode=atomic -coverprofile=cover.out ./...
	go run ./cmd/picl-cover -profile cover.out -floors COVER_FLOOR.txt

cover-update:
	go test -covermode=atomic -coverprofile=cover.out ./...
	go run ./cmd/picl-cover -profile cover.out -floors COVER_FLOOR.txt -update

# bench runs the substrate microbenchmarks (internal/perf) and prints
# their ns/op, B/op and allocs/op. Nothing gates on the timing; their
# allocation rates are gated by internal/perf's TestAllocsPerOp in
# every test run.
bench:
	go test -run '^$$' -bench . -benchmem ./internal/perf

# bench-test runs the root package's benchmarks — the paper's tables
# and figures, the recovery scan and the durable store — through the
# plain go-test harness.
bench-test:
	go test -bench=. -benchmem

# benchmark-module (part of ci) vets and tests benchmark/, a Go module
# of its own (it replaces picl with the parent directory), so that a
# change to an interface it wraps — the storage stores, the facade —
# fails here rather than at the next benchmark run.
benchmark-module:
	cd benchmark && go vet ./... && go test ./...

# examples (part of ci) builds every example and runs the five fast
# ones end to end; each exits through log.Fatal on a violated guarantee
# (a torn store, a wrong recovered value). They run under a fresh
# TMPDIR that must be empty afterwards. examples-sweeps (nightly) runs
# the two sweeps, multiprogram and sensitivity, about a minute together.
EXAMPLES = quickstart kvstore linkedlist ioconsistency timetravel
EXAMPLE_SWEEPS = multiprogram sensitivity

examples:
	go build -o bin/examples/ ./examples/...
	@tmp="$$(mktemp -d)"; \
	for ex in $(EXAMPLES); do \
		echo "== example $$ex"; \
		TMPDIR="$$tmp" bin/examples/$$ex || { rm -rf "$$tmp"; exit 1; }; \
	done; \
	left="$$(ls -A "$$tmp")"; rm -rf "$$tmp"; \
	if [ -n "$$left" ]; then echo "examples left in TMPDIR: $$left"; exit 1; fi

examples-sweeps:
	go build -o bin/examples/ ./examples/...
	@for ex in $(EXAMPLE_SWEEPS); do \
		echo "== example $$ex"; bin/examples/$$ex || exit 1; \
	done

# crash (part of ci) is the SIGKILL crash-recovery gate: 100 real child
# processes are killed at seeded random points mid-workload and every
# store directory they leave behind must recover bit-exactly against
# the golden replay (see cmd/picl-crash). ~3 s wall clock; a failure
# prints the single-seed replay invocation.
crash:
	go run ./cmd/picl-crash -points 100

# load (part of ci) is the serving gate: build both serving binaries,
# boot a throwaway picl-simd on an ephemeral port with a temp store,
# fire the committed 1000-request mixed sweep at it, and gate every
# cell digest and the plan digest byte for byte against the model
# registry (internal/golden). Its req/s and latency percentiles go to
# stderr and load-report.json; nothing gates on them.
LOAD = bin/picl-load -spawn bin/picl-simd -n 1000 -c 8 -seed 1 -check

load:
	go build -o bin/picl-simd ./cmd/picl-simd
	go build -o bin/picl-load ./cmd/picl-load
	$(LOAD) -out load-report.json

# golden re-records the model registry after an intentional change to
# the model's outputs: the golden tests and the load gate run with
# PICL_GOLDEN_UPDATE naming internal/golden/registry.json, write what
# they computed into it, and print each entry that moved. Commit the
# file with the change; its new hash moves every served address.
GOLDEN_UPDATE = PICL_GOLDEN_UPDATE=$(CURDIR)/internal/golden/registry.json

golden:
	go build -o bin/picl-simd ./cmd/picl-simd
	go build -o bin/picl-load ./cmd/picl-load
	cd internal/exp && $(GOLDEN_UPDATE) go test -run Golden
	$(GOLDEN_UPDATE) $(LOAD)

# load-soak (nightly) hammers a daemon whose result store runs behind
# the storage/fault wrapper for 60s: transient injected faults must
# degrade the store to read-only at worst, never corrupt a response
# byte (digest consistency stays enforced per cell).
load-soak:
	go build -o bin/picl-simd ./cmd/picl-simd
	go build -o bin/picl-load ./cmd/picl-load
	bin/picl-load -spawn bin/picl-simd -spawn-args "-fault-seed 7" -soak 60s

# fuzz (part of ci) is the storage fault-injection campaign: 200 seeded
# fault schedules per mode (sim crash sweeps + failing writes and
# fsyncs, bit rot, and power cuts that land or lose every sector
# written since each file's last fsync, under real store directories),
# every survivor verified against the golden replay, every recovery
# checked bit-exactly and never below the last Sync that returned nil
# (see cmd/picl-fuzz and DESIGN.md §11). PICL_FUZZ_LONG=1 scales to the
# nightly campaign size (x10).
fuzz:
	go run ./cmd/picl-fuzz -points 200
