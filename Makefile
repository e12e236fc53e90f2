# SDRaD-Go development targets. `make check` is the full gate: the
# tier-1 verify (build + test) plus formatting, vet, the sdradlint
# invariant analyzers, the race detector over every package, and the
# byte-pinned paper tables. test-lifecycle and test-cluster are focused
# subsets of race, for running one tier alone.

GO ?= go

.PHONY: check fmt vet lint build test race test-lifecycle test-cluster report-check bench bench-smoke fuzz-smoke campaign-smoke

check: fmt vet lint build test race report-check

# Lifecycle/elasticity conformance tier (DESIGN.md §13): the shared
# lifecycletest battery against every component (Domain, Pool,
# AsyncPool, kvstore.Pool, the serving frontend bare and under both
# protocols), the -race elasticity hammers (concurrent Pool.Resize
# under Do and DoBatchItems load with a mid-run drain, the frontends'
# grow-under-burst runs), the retired-worker and durable-acked-write
# regressions, the drain regressions (whole-call drain accounting,
# batch shedding, and the bounded drain: an idle client does not hold
# SIGTERM — the kvd session and httpd's idle-connection test), the
# connection loops' flush-rule and settle-rule batteries (kvd and
# cluster) with the settle rule's exceptions (demotion after a
# detection, gateway barriers, overload retry, the window's allocation
# pin), the frontend's Submit/Wait and serve.Buffer's settle hook, call
# and task recycling (a reused task gets its own outcome, published
# once; the recycling hammer), the inline entry (RunTask: runs on an
# idle queue only, queues behind busy ones, holds up Close and Flush,
# and its hammer mixed with SubmitTask and Flush), the
# pipelined-vs-serial kvd session, and the retrofit shell's table run
# against both servers (TestResizableShell: resize bounds and key
# reuse, the native restart window, the failed-run classifier).
test-lifecycle:
	$(GO) test -race -run 'TestLifecycleConformance|TestElastic|TestResiz|TestPoolResizeHammer|TestRetiredWorkerNeverRedispatched|Drain|TestFlushRule|TestSettle|TestSubmitQueues|TestSubmitOverload|TestSubmitTaskOutcome|TestRunTask|TestRecycledCallsKeepTheirOutcome|TestBuffer|TestPipelinedWindow' ./...

# Cluster tier gate (DESIGN.md §14): rendezvous placement, lease
# membership, crash/rolling/partition state-machine tests, the wire
# fuzz seeds, the churn dispatch hammer (no acked write lost, no nacked
# write executed), and the cluster==single-pool differential oracle —
# all under the race detector.
test-cluster:
	$(GO) test -race -count=1 ./internal/cluster/...

# Lint gate: the sdradlint invariant analyzers (internal/analysis) over
# every package — wall-clock ban, uncharged-accessor containment,
# deterministic map iteration, typed-error classification,
# exported-symbol docs, no internal export without a non-test user,
# and no serving binary linking the campaign engine (DESIGN.md §10
# maps each to its soundness argument). Findings land in LINT_FINDINGS.json; CI publishes the file
# when the gate fails.
lint:
	$(GO) run ./cmd/sdradlint -json-out LINT_FINDINGS.json ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark of record (benchmark/README.md, BENCHMARK.json): every
# workload against the real binaries over loopback TCP, end-to-end and
# per-layer, results under .bench_build/. Compare two runs with
# `go run ./benchmark -compare a.json b.json`.
bench:
	$(GO) run ./benchmark

# Fuzz smoke (CI): ten seconds of coverage-guided fuzzing on each target
# whose parser faces attacker bytes on the trusted side — the HTTP head
# parser and request path (differential against their Split-based
# forms), the full SDRaD serve path, bearer-token extraction, the kv
# command parser every kvd and cluster command passes through (its
# field splitter differential against strings.Fields), the cluster wire
# codec, the router's bounds check (differential against
# the codec round trip it replaces), WAL recovery over an arbitrary
# tail and the WAL record decoder (differential against the record
# encoder) — plus the containment path: the kv SDRaD request path, whose
# malicious inputs run detect → trap → rewind → classify, and the
# allocation-free error classifier (differential against errors.As).
# `make test` only replays the seed corpora; this explores past them. A
# failing input lands under the package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/httpd
	$(GO) test -run '^$$' -fuzz '^FuzzServeSDRaD$$' -fuzztime 10s ./internal/httpd
	$(GO) test -run '^$$' -fuzz '^FuzzGatewayAuth$$' -fuzztime 10s ./internal/gateway
	$(GO) test -run '^$$' -fuzz '^FuzzReadCommand$$' -fuzztime 10s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzCheckRequest$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzHandleSDRaD$$' -fuzztime 10s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzAsMatchesErrorsAs$$' -fuzztime 10s ./internal/errtype

# One-iteration pass over the go-test benchmarks (CI): its only job is
# proving they still run; numbers come from `make bench`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Deterministic resilience-campaign smoke (CI): fixed seed, five
# scenarios — three attacked ones, one benign control (so every oracle —
# same seed, worker counts, benign cycle parity — actually runs), and
# the elastic-resize scenario (so the resize oracle replays its
# grow/shrink schedule) — plus one gateway scenario with its isolation
# oracle, the crash-recovery oracle, and the cluster==single-pool
# differential oracle at node counts 1/2/4, serial and batched 8/32,
# through node-crash, rolling-restart, and partition schedules. The
# JSON trace is byte-pinned: the target regenerates CAMPAIGN_CI.json
# and fails if it differs from the committed file, so a trace change
# lands only as a deliberate commit of the new file.
campaign-smoke:
	$(GO) run ./cmd/sdrad-campaign -seed 42 -requests 100 \
		-scenarios kv-pool-mixed,http-domain-malformed,ffi-bridge-binary,kv-pool-benign,kv-pool-resize \
		-gateway gw-attack-tenants \
		-oracles -cluster -out CAMPAIGN_CI.json
	git diff --exit-code CAMPAIGN_CI.json

# The paper's tables, byte-pinned: the target regenerates EXPERIMENTS.md
# (every experiment in full mode at seed 1, ~10 s) and fails if it
# differs from the committed file, so a change to a measured cell lands
# only as a deliberate commit of the new report.
report-check:
	$(GO) run ./cmd/sdrad-report -seed 1 -o EXPERIMENTS.md
	git diff --exit-code EXPERIMENTS.md
