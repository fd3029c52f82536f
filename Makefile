.PHONY: ci vet fmt-check tidy-check lint lint-fix lint-sarif build test race cover cover-update bench bench-check bench-test benchmark-module crash fuzz load load-update load-soak

# ci is the tier-1 gate: vet, formatting and go.mod hygiene, the
# project-specific invariant linter, build everything, the full test
# suite under the race detector (the concurrency contract in
# internal/sim's package doc is enforced here, not just documented),
# per-package coverage floors, then the short-mode perf gate. picl-lint
# exits nonzero on any unsuppressed diagnostic, so a determinism/epoch/
# lock violation fails the build exactly like a vet error, and
# bench-check fails it on a throughput or output-byte regression
# against the committed BENCH_PR9.json. load boots a real picl-simd
# and gates the served bytes (and, on the recording host, req/s)
# against SERVE_PR10.json. benchmark-module vets and tests the separate
# benchmark/ module, which the root-level go commands never reach.
ci: vet fmt-check tidy-check lint build race cover bench-check benchmark-module crash fuzz load

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
# //lint:ignore directives fail the gate too (-unused-ignores defaults
# to on).
lint:
	go run ./cmd/picl-lint ./...

# lint-fix applies picl-lint's mechanical rewrites (eidcmp helper
# calls, errwrap %w) in place, then fails if the tree changed — run it
# locally to fix, while in CI it proves the committed tree and the
# autofixes cannot drift apart.
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

# bench re-records the perf baseline: every substrate microbenchmark at
# full benchtime plus a short-benchtime section for CI, instr/sec for
# the simulator throughput benchmark, the Fig. 9 PiCL GMean, and the
# SHA-256 digests of the rendered Fig. 9/Table 5 tables. Commit the
# refreshed BENCH_PR9.json together with any intentional perf change.
# (BENCH_PR4.json stays committed as the pre-SoA reference point; the
# 2x end-to-end claim in EXPERIMENTS.md is the ratio of the two.)
bench:
	go run ./cmd/picl-perf -out BENCH_PR9.json

# bench-check (part of ci) replays the short benchmark section and the
# small-figure digests against the committed baseline: timing regression
# on the recording host, any allocs/op growth on a zero-alloc path, or a
# single changed output byte fails. On other hosts the timing gates are
# skipped automatically; digests still apply. Timing is compared after
# dividing out the Calibrate spin (host-speed drift); the tolerance here
# is 25% rather than picl-perf's default 10% because shared-container
# hosts show measured ±15% non-uniform drift on memory-bound benches
# even after calibration — a real hot-path regression still trips it.
bench-check:
	go run ./cmd/picl-perf -check -short -tol 0.25 -baseline BENCH_PR9.json

# bench-test runs the same bodies through the plain go-test harness.
bench-test:
	go test -bench=. -benchmem

# benchmark-module (part of ci) vets and tests benchmark/, a Go module
# of its own (it replaces picl with the parent directory), so that a
# change to an interface it wraps — the storage stores, the facade —
# fails here rather than at the next benchmark run.
benchmark-module:
	cd benchmark && go vet ./... && go test ./...

# crash (part of ci) is the SIGKILL crash-recovery gate: 100 real child
# processes are killed at seeded random points mid-workload and every
# store directory they leave behind must recover bit-exactly against
# the golden replay (see cmd/picl-crash). ~3 s wall clock; a failure
# prints the single-seed replay invocation.
crash:
	go run ./cmd/picl-crash -points 100

# load (part of ci) is the serving gate: build both serving binaries,
# boot a throwaway picl-simd on an ephemeral port with a temp store,
# fire the committed 1000-request mixed sweep at it, and gate against
# SERVE_PR10.json — cell and plan digests must match byte-for-byte on
# every host; the req/s floor applies only when the host fingerprint
# matches the recording host (the bench-check skip discipline). The
# 50% tolerance is loose on purpose: HTTP round-trips on a shared
# container jitter far more than in-process benchmarks, and the gate's
# real teeth are the digests.
load:
	go build -o bin/picl-simd ./cmd/picl-simd
	go build -o bin/picl-load ./cmd/picl-load
	bin/picl-load -spawn bin/picl-simd -n 1000 -c 8 -seed 1 \
		-check -baseline SERVE_PR10.json -out load-report.json

# load-update re-records the serving baseline. Commit the refreshed
# SERVE_PR10.json together with any intentional change to the response
# payload or the request plan.
load-update:
	go build -o bin/picl-simd ./cmd/picl-simd
	go build -o bin/picl-load ./cmd/picl-load
	bin/picl-load -spawn bin/picl-simd -n 1000 -c 8 -seed 1 -out SERVE_PR10.json

# load-soak (nightly) hammers a daemon whose result store runs behind
# the storage/fault wrapper for 60s: transient injected faults must
# degrade the store to read-only at worst, never corrupt a response
# byte (digest consistency stays enforced per cell).
load-soak:
	go build -o bin/picl-simd ./cmd/picl-simd
	go build -o bin/picl-load ./cmd/picl-load
	bin/picl-load -spawn bin/picl-simd -spawn-args "-fault-seed 7" -soak 60s

# fuzz (part of ci) is the storage fault-injection campaign: 200 seeded
# fault schedules per mode (sim crash sweeps + injected torn writes,
# lying fsyncs, ENOSPC, bit rot, power cuts against real store
# directories), every survivor verified against the golden replay and
# every recovery checked bit-exactly (see cmd/picl-fuzz and DESIGN.md
# §11). PICL_FUZZ_LONG=1 scales to the nightly campaign size (x10).
fuzz:
	go run ./cmd/picl-fuzz -points 200
