GO ?= go

.PHONY: build test vet race torture check check-faults check-crash bench-json bench-compare allocs whatif

build:
	$(GO) build ./...

# vet also runs dpclint, the repo's metric-naming lint: every metric
# registration must use a constant name or the sanctioned q%d per-queue
# convention (see cmd/dpclint); fails on any file gofmt would rewrite; and
# keeps the allocate-and-copy reads (Link.DMARead, Region.Read) out of the
# cache and nvme-fs data paths, which borrow a view or fill a pooled buffer
# instead, and the allocate-a-result reads (KVFS.Read, DFS.Read, a by-copy
# cl.Get of a block key) out of dispatch and the KVFS block path, which read
# into the caller's buffer (DESIGN.md "Buffer ownership on the PCIe path").
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/dpclint ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE '\.DMARead\(|(Mem|hm)\.Read\(' $$(ls internal/cache/*.go internal/nvmefs/*.go | grep -v _test.go)); \
		if [ -n "$$out" ]; then echo "allocate-and-copy read on a data path:"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE '(KVFS|DFS)\.Read\(|cl\.Get\([a-z]+, BigKey' $$(ls internal/dispatch/*.go | grep -v _test.go) internal/kvfs/io.go); \
		if [ -n "$$out" ]; then echo "allocate-a-result read on the backend read path:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector pass over the packages with shared mutable state reached
# from multiple goroutines in tests (observability hub, hybrid cache), the
# engine itself (processes run on iter.Pull coroutines, which the detector
# follows), the WAL and KVFS on top of it, the link, memory and buffer-pool
# layers whose views and pooled buffers the data paths now share, localfs,
# the KV store, SSD, dispatcher and fabric under the backend read path, and
# the root package's integration tests.
race:
	$(GO) test -race . ./internal/sim/... ./internal/wal/... ./internal/kvfs/... ./internal/obs/... ./internal/cache/... ./internal/fault/... ./internal/nvmefs/... ./internal/pcie/... ./internal/mem/... ./internal/bufpool/... ./internal/localfs/... ./internal/kv/... ./internal/ssd/... ./internal/dispatch/... ./internal/fabric/...

# Short fixed-seed differential torture: every stack, 8 seeds, 2000 ops
# each, replayed against the in-memory oracle (see internal/check).
torture:
	$(GO) run ./cmd/dpccheck -seeds 8 -ops 2000

# Differential torture under deterministic fault injection: the dpc stacks
# run the oracle traces while the per-seed schedule drops completions,
# corrupts SQEs/CQEs, crashes workers, freezes the controller and fails
# backend I/O. Every op must still succeed with correct bytes or fail
# cleanly.
check-faults:
	$(GO) run ./cmd/dpccheck -faults -seeds 4 -ops 1500

# Crash-restart torture on the WAL-enabled stack: per seed, the trace is
# timed once, then the world is power-failed at seed-chosen instants (biased
# into fsync group-commit and metadata windows), restarted from the
# surviving superblock + WAL, and verified against every durability promise
# acknowledged before the crash. Failures ddmin-shrink with the crash point
# pinned.
check-crash:
	$(GO) run ./cmd/dpccheck -crash -seeds 4 -points 6

# Machine-readable metrics + trace from the instrumented reference workload,
# plus the serial-vs-pipelined large-I/O comparison (the perf trajectory).
bench-json:
	$(GO) run ./cmd/dpcbench -metrics-out BENCH_metrics.json -trace-out BENCH_trace.json -largeio-out BENCH_3.json
	$(GO) run ./cmd/dpcbench -bench-out BENCH_5.json
	$(GO) run ./cmd/dpcbench -smallio-out BENCH_6.json
	$(GO) run ./cmd/dpcbench -ramp-out BENCH_7.json
	$(GO) run ./cmd/dpcbench -fleet-out BENCH_8.json
	$(GO) run ./cmd/dpcbench -fsync-out BENCH_9.json
	$(GO) run ./cmd/dpcbench -whatif-out BENCH_10.json

# Causal what-if sensitivity sweep alone: counterfactual parameter dials at
# 0.25x/0.5x/2x over the smallio and fsync reference workloads, payoff
# ranking, and the payoff-vs-share cross-check (violations must be 0).
whatif:
	$(GO) run ./cmd/dpcbench -whatif-out BENCH_10.json

# Regression gate: re-run the large-I/O scenario and diff every metric
# against the committed baseline — structural counts (ops, bytes, doorbells,
# DMAs) must match exactly, times and throughput within 5%. Exits non-zero
# on drift, so perf regressions fail `make check` instead of landing.
bench-compare:
	$(GO) run ./cmd/dpcbench -baseline BENCH_3.json -compare
	$(GO) run ./cmd/dpcbench -baseline BENCH_6.json -compare
	$(GO) run ./cmd/dpcbench -baseline BENCH_7.json -compare
	$(GO) run ./cmd/dpcbench -baseline BENCH_8.json -compare
	$(GO) run ./cmd/dpcbench -baseline BENCH_9.json -compare
	$(GO) run ./cmd/dpcbench -baseline BENCH_10.json -compare

# Allocs-per-op gate: the steady-state client data paths (buffered RMW
# write, cached ReadInto), the telemetry flight-recorder ring, and the DPU
# side of the PCIe read path (clean-table flush scan, single-entry meta read)
# must stay at zero heap allocations per op, as must the engine's park/wake
# paths, a same-length KV Put and GetInto, and a tracked SSD overwrite with
# its barrier; an 8 KiB write+read through the TGT, through KVFS and through
# the whole stack stays at its fixed per-command bookkeeping.
allocs:
	$(GO) test -count=1 -run 'ZeroScratchAllocs|ZeroAllocs|PairBytes' .
	$(GO) test -count=1 -run 'ZeroAllocs' ./internal/telemetry ./internal/cache ./internal/nvmefs ./internal/kv ./internal/kvfs ./internal/ssd ./internal/sim

check: vet test race allocs torture check-faults check-crash bench-compare
