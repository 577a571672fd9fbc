GO ?= go

.PHONY: build test vet race torture check check-faults check-crash bench-json bench-identical bench-smoke allocs fuzz whatif loc

build:
	$(GO) build ./...

# The size of the program: non-test Go lines outside bench/ (and outside
# dot-directories), the count ROADMAP.md's baseline reports.
loc:
	@find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# vet also vets the bench/ module, which root `go vet ./...` stops short of,
# and runs dpclint over both: every metric registration and every Publish of
# a component-owned counter must use a constant name or the sanctioned q%d
# per-queue convention (see cmd/dpclint); every exported field of an Options
# or *Config struct must be written by some non-test file outside its
# package (bench/ counts; structs marked //dpclint:params, the modelled
# testbed's calibration surface, are exempt); every exported func or method
# must be named by some non-test file other than at its declaration (bench/,
# cmd/ and examples/ count; a method an in-tree or standard-library interface
# requires is exempt); every unexported struct field must be read by some
# non-test file of its package (an assignment, ++/-- or literal key is not a
# read; a field that serves only equality or a map key carries a reasoned
# //dpclint:ok); and a //dpclint:ok suppression must give its reason.
# vet fails on any file gofmt would rewrite; and
# keeps the allocate-and-copy reads (Link.DMARead, Region.Read) out of the
# cache and nvme-fs data paths, which borrow a view or fill a pooled buffer
# instead, and the allocate-a-result reads (KVFS.Read, DFS.Read, a by-copy
# cl.Get of a block key) out of dispatch and the KVFS block path, which read
# into the caller's buffer (DESIGN.md "Buffer ownership on the PCIe path").
# internal/sim stays one single-threaded engine: no channel, sync primitive or
# `go` statement (processes are iter.Pull coroutines), and no environment
# variable, build tag or package-level bool that would select a second one.
# The cache's bucket hash and the KV shard hash are FNV-1a written inline on
# the hot path: no hash/fnv import outside their tests, which compare
# against it. Every server pool (PCIe engines and pipe, fabric NICs, SSD
# channels and buses, CPU cores) is a computed clock, not a queue: a
# sim.Resource is a semaphore held across work of unknown length, and the
# only non-test ones outside internal/sim are the WAL commit lock and the NFS
# slot table; the clocks' tests keep the resource models as the reference.
# The KV shards and the DFS data servers answer calls with fabric.Server
# callbacks, not worker processes: no non-test file of internal/kv starts a
# process (.Go), and outside bench/ the only RPC receive loop (RecvRPC) is the
# DFS MDS's, which makes nested calls.
# No non-test Go file outside bench/ is over 700
# lines: a larger one is split along its seams. No Go file outside bench/
# and internal/model, tests included, names HostMemMB or DPUMemMB: arenas
# hold what a world reserves, so nothing sizes them by hand. Every stack is
# built and measured in one place, internal/world: no non-test Go file
# outside it, dpc.go (which defines dpc.New), examples/ (public-API demos)
# and bench/ (its own module until it builds from internal/world) builds a
# machine, a transport or a dpc.System (model.NewMachine, dpc.New or
# dpcroot.New, nvmefs.NewDriver, virtio.NewTransport) or runs a closed loop
# (workload.Run) — figures, torture, what-if and the cmd/ tools go through
# the world constructors, world.NewSystem and world.Measure.
vet:
	$(GO) vet ./...
	cd bench && GOTOOLCHAIN=local GOPROXY=off $(GO) vet ./...
	$(GO) run ./cmd/dpclint ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE '\.DMARead\(|(Mem|hm)\.Read\(' $$(ls internal/cache/*.go internal/nvmefs/*.go | grep -v _test.go)); \
		if [ -n "$$out" ]; then echo "allocate-and-copy read on a data path:"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE '(KVFS|DFS)\.Read\(|cl\.Get\([a-z]+, BigKey' $$(ls internal/dispatch/*.go | grep -v _test.go) internal/kvfs/io.go); \
		if [ -n "$$out" ]; then echo "allocate-a-result read on the backend read path:"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE '\bchan\b|"sync(/atomic)?"|^[[:space:]]*(go|select)[[:space:]]|os\.Getenv|^//go:build|^// \+build|^var [A-Za-z_]+( bool| *= *(true|false))' \
		$$(ls internal/sim/*.go | grep -v _test.go)); \
		if [ -n "$$out" ]; then echo "concurrency primitive or engine switch in internal/sim:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n '"hash/fnv"' $$(ls internal/cache/*.go internal/kv/*.go | grep -v _test.go)); \
		if [ -n "$$out" ]; then echo "hash/fnv on a lookup path (hash inline):"; echo "$$out"; exit 1; fi
	@out=$$(find . \( -path ./internal/sim -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' \
		! -path ./internal/wal/wal.go ! -path ./internal/dfs/clients.go -print | xargs grep -n 'sim\.NewResource'); \
		if [ -n "$$out" ]; then echo "queueing resource on a server pool (book a sim.Servers clock or a free time instead):"; echo "$$out"; exit 1; fi
	@out=$$(grep -n '\.Go(' $$(ls internal/kv/*.go | grep -v _test.go)); \
		if [ -n "$$out" ]; then echo "process started in internal/kv (answer calls with a fabric.Server):"; echo "$$out"; exit 1; fi
	@out=$$(find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print | \
		xargs awk 'FNR == 1 {fn = ""} /^func /{fn=$$0} /RecvRPC\(/ && !/^func RecvRPC\(/ && !(FILENAME == "./internal/dfs/servers.go" && fn ~ /\) mdsServe\(/) {print FILENAME ":" FNR ": " $$0}'); \
		if [ -n "$$out" ]; then echo "RPC receive loop outside the DFS MDS (answer calls with a fabric.Server):"; echo "$$out"; exit 1; fi
	@out=$$(find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs wc -l | \
		awk '$$2 != "total" && $$1 > 700'); \
		if [ -n "$$out" ]; then echo "non-test file over 700 lines (split it along its seams):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnwE 'HostMemMB|DPUMemMB' --include='*.go' . | grep -vE '^\./(bench|internal/model|\.[^/]*)/'); \
		if [ -n "$$out" ]; then echo "hand-sized arena (arenas hold what is reserved):"; echo "$$out"; exit 1; fi
	@out=$$(find . \( -path ./bench -o -path ./examples -o -path ./internal/world -o -path './.*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' ! -path ./dpc.go -print | \
		xargs grep -nE 'model\.NewMachine\(|dpc(root)?\.New\(|nvmefs\.NewDriver\(|virtio\.NewTransport\(|workload\.Run\('); \
		if [ -n "$$out" ]; then echo "world built or closed loop run outside internal/world:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector pass over the packages with shared mutable state reached
# from multiple goroutines in tests (observability hub, hybrid cache), the
# engine itself (processes run on iter.Pull coroutines, which the detector
# follows), the WAL and KVFS on top of it, the link, memory and buffer-pool
# layers whose views and pooled buffers the data paths now share, localfs,
# the KV store, SSD, dispatcher and fabric under the backend read path, the
# remaining owners and readers of published counters (CPU pools, DFS, the
# machine model, stats, the telemetry sampler), the protocol, profiler,
# what-if, workload, erasure-coding, transform and FUSE packages, the world
# builder with its measured closed loop, the torture harness's own tests, and
# the root package's integration tests. Left out: internal/exp (the large
# reference worlds, whose suite takes 30 s without the detector) and the cmd/
# tools.
race:
	$(GO) test -race . ./internal/sim/... ./internal/wal/... ./internal/kvfs/... ./internal/obs/... ./internal/cache/... ./internal/fault/... ./internal/nvmefs/... ./internal/pcie/... ./internal/mem/... ./internal/bufpool/... ./internal/localfs/... ./internal/kv/... ./internal/ssd/... ./internal/dispatch/... ./internal/fabric/... ./internal/cpu/... ./internal/dfs/... ./internal/model/... ./internal/stats/... ./internal/telemetry/... \
		./internal/whatif/... ./internal/nvme/... ./internal/prof/... ./internal/xform/... ./internal/virtio/... ./internal/workload/... ./internal/ec/... ./internal/gf256/... ./internal/fuse/... ./internal/world/... ./internal/check/...

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
# acknowledged before the crash; each recovery is power-failed once more at a
# seed-chosen instant inside it, and that image recovered and verified too.
# Failures ddmin-shrink with the crash point pinned.
check-crash:
	$(GO) run ./cmd/dpccheck -crash -seeds 4 -points 6

# Every committed BENCH artifact, regenerated into BENCH_DIR by one dpcbench
# run: the metrics + trace snapshots of the instrumented reference workload,
# the serial-vs-pipelined large-I/O comparison with its attribution summary,
# and the small-I/O, ramp, fleet, fsync and what-if reports. All of them are
# virtual-time quantities and byte-deterministic. `make bench-json` writes in
# place — a deliberate re-baseline, to be explained in the PR that commits it.
BENCH_DIR ?= .
bench-json:
	$(GO) run ./cmd/dpcbench -metrics-out $(BENCH_DIR)/BENCH_metrics.json -trace-out $(BENCH_DIR)/BENCH_trace.json \
		-bench-out $(BENCH_DIR)/BENCH_5.json -smallio-out $(BENCH_DIR)/BENCH_6.json -ramp-out $(BENCH_DIR)/BENCH_7.json \
		-fleet-out $(BENCH_DIR)/BENCH_8.json -fsync-out $(BENCH_DIR)/BENCH_9.json -whatif-out $(BENCH_DIR)/BENCH_10.json

# Regression gate: regenerate every committed BENCH artifact into a temp dir
# and require each to be byte-identical to the committed file. On a
# deterministic simulator this is strictly stronger than a tolerance band:
# any change to modelled behaviour shows up, and the first differing lines
# (the JSON key and its two values) are printed. A PR that means to change an
# artifact runs `make bench-json` and commits the diff with the cause named.
bench-identical:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(MAKE) -s bench-json BENCH_DIR="$$tmp" >/dev/null && \
	bad=0 && for f in BENCH_*.json; do \
		if ! cmp -s "$$f" "$$tmp/$$f"; then \
			echo "bench-identical: $$f differs from a fresh run; first difference (committed <, fresh >):"; \
			diff "$$f" "$$tmp/$$f" | head -n 4; bad=1; \
		fi; \
	done && for f in "$$tmp"/BENCH_*.json; do \
		[ -f "$$(basename "$$f")" ] || { echo "bench-identical: $$(basename "$$f") is generated but not committed"; bad=1; }; \
	done && [ $$bad -eq 0 ] && echo "bench-identical OK: $$(ls BENCH_*.json | wc -l) artifacts byte-identical to a fresh run"

# The benchmark's smoke test: every bench/ workload and probe at 1/100 scale.
# bench/ is a module of its own (it imports this one through a replace), so
# `make test` does not reach it; run here, a program change that breaks the
# benchmark fails `make check`. Offline and on the installed toolchain, as
# bench/run.sh builds it.
bench-smoke:
	cd bench && GOTOOLCHAIN=local GOPROXY=off $(GO) test ./...

# Causal what-if sensitivity sweep alone: counterfactual parameter dials at
# 0.25x/0.5x/2x over the smallio and fsync reference workloads, payoff
# ranking, and the payoff-vs-share cross-check (violations must be 0).
whatif:
	$(GO) run ./cmd/dpcbench -whatif-out BENCH_10.json

# Allocs-per-op gate: the steady-state client data paths (buffered RMW
# write, cached ReadInto), the telemetry flight-recorder ring, and the DPU
# side of the PCIe read path (clean-table flush scan, single-entry meta read)
# must stay at zero heap allocations per op, as must the host cache's bucket
# lookup (TestHostFindEntryZeroAllocs: a hit and a miss on a full bucket), the
# engine's park/wake paths, a same-length KV Put and a GetInto hit and miss,
# a tracked SSD overwrite with its barrier, an SSD read into a caller's
# buffer, a contended and an uncontended CPU execution, a contended DMA and a
# fabric RPC round trip with nil payloads, and a Slice of a backed memory reservation;
# a KV GetInto round trip through a shard's fabric.Server allocates nothing
# (a recycled call record, carried by pointer both ways), and a DFS data
# server round trip exactly what the server does with the shards (nothing to
# overwrite one, two objects to read one back);
# an 8 KiB write+read through nvme-fs, alone and four deep on one doorbell,
# allocates nothing (recycled command, job and IRQ records, reused worker
# processes), and through the whole stack nothing either (the KV call record
# is recycled and the block key built on the stack); a buffered read that
# misses allocates nothing end to end, with the prefetcher off or on; one
# fsync journal pass of a warm inode allocates nothing (a recycled pass
# record, WAL group and Cond); and a process spawned by Go or Fork reuses a
# finished one, so it allocates nothing. Simulated memory is backed only
# where it is touched: with one 8 KiB command in flight per queue, a default
# nvme-fs driver backs its rings and one slot per queue, and a default world
# running 32 threads of direct I/O little more than that and its cache
# layout (ResidentHostMem).
allocs:
	$(GO) test -count=1 -run 'ZeroScratchAllocs|ZeroAllocs|PairBytes|ResidentHostMem|ParksPerOp' .
	$(GO) test -count=1 -run 'ZeroAllocs|DSRoundTripAllocs|ResidentHostMem|RunsAsEvents' ./internal/telemetry ./internal/cache ./internal/nvmefs ./internal/kv ./internal/kvfs ./internal/ssd ./internal/cpu ./internal/sim ./internal/fabric ./internal/pcie ./internal/mem ./internal/dfs

# Every Fuzz* target in the module (bench/ aside), each fuzzed for FUZZTIME:
# go test fuzzes one target of one package per run. An input that fails is
# written under that package's testdata/fuzz, from where plain go test
# replays it on every run: commit it together with its fix.
FUZZTIME ?= 10s
fuzz:
	@for f in $$(grep -rl --include='*_test.go' '^func Fuzz' . | grep -v '^\./bench/' | sort); do \
		for t in $$(grep -o '^func Fuzz[A-Za-z0-9_]*' $$f | cut -d' ' -f2); do \
			echo "fuzz $$(dirname $$f) $$t"; \
			out=$$($(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) $$(dirname $$f) 2>&1) || { echo "$$out"; exit 1; }; \
		done; \
	done

check: vet test race allocs fuzz torture check-faults check-crash bench-identical bench-smoke
