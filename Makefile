GO ?= go

.PHONY: all build fmt test vet race race-hot check chaos bench bench-json bench-sim-json trace telemetry churn doctor self-heal

all: check

build:
	$(GO) build ./...

# fmt fails if any file needs gofmt; CI runs the same check.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hot doubles down on the packages with the most schedule-sensitive
# surface — the scheduler core itself, the transport datapath and the
# fabric (handler events, pooled flows with generation-checked handles),
# the collective schedule generators, the proxy engine, the strategy
# autotuner, the lifecycle orchestrator, and the diagnosis engine (whose
# recorder tap runs inside span emission) — running them twice under the
# detector.
race-hot:
	$(GO) test -race -count=2 ./internal/sim/ ./internal/transport/ ./internal/netsim/ ./internal/collective/ ./internal/proxy/ ./internal/tuner/ ./internal/orchestrator/ ./internal/diagnosis/ ./internal/remediation/

# check is the CI gate: everything must build, vet clean, and pass the
# full test suite twice — once plain, once under the race detector.
check: build fmt vet test race

# chaos runs the seeded chaos sweep on its own (it is also part of
# `test`); useful when iterating on the harness.
chaos:
	$(GO) test ./internal/chaos/ -v -run 'TestChaosSweep|TestChaosCatchesWeakenedProtocol'

bench:
	$(GO) test -bench=. -benchtime=1x .

# bench-json runs the root per-figure benchmark suite once and writes
# the reported metrics, allocations (B/op, allocs/op) included, as
# machine-readable BENCH.json records of {bench, metric, value}. CI
# uploads the file as a build artifact.
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem . | $(GO) run ./cmd/mccs-benchjson > BENCH.json

# bench-sim-json measures the scheduler core's hot paths (timer-churn,
# same-instant-wake, proc-handoff), the per-message datapath (one
# message through transport and fabric, BenchmarkDatapath) and a warm
# backed 64 KB / 1 MB ring AllReduce through the proxy
# (BenchmarkBackedCollective) with allocation reporting and writes
# BENCH.sim.json; DESIGN.md §10 quotes these entries and CI uploads the
# file as a build artifact. The pooled paths must report 0 allocs/op
# (asserted by TestHotPathsDoNotAllocate and TestDatapathDoesNotAllocate
# as well); a backed collective's B/op stays in the hundreds of bytes,
# so a per-message payload copy would show as MB/op (pinned by
# TestBackedCollectiveAllocatesLikeUnbacked).
# The remediation-loop entry measures the full closed detect→diagnose→
# recover loop (chaos self-heal with the control loop attached) against
# its no-loop baseline, so control-plane overhead regressions surface in
# the same artifact.
bench-sim-json:
	( $(GO) test -run '^$$' -bench BenchmarkSimCore -benchtime=10000x ./internal/sim/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkDatapath -benchtime=10000x -benchmem ./internal/transport/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkBackedCollective -benchtime=1000x -benchmem ./internal/proxy/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRemediationLoop|BenchmarkSelfHealBaseline' -benchtime=3x ./internal/remediation/ ) | $(GO) run ./cmd/mccs-benchjson > BENCH.sim.json

# trace records a short Fig. 7 reconfiguration run with the flight
# recorder and prints the bottleneck-attribution summary. The JSON also
# loads in Perfetto (ui.perfetto.dev) for a visual timeline.
trace:
	$(GO) run ./cmd/mccs-reconfig -run 6s -bg 2s -reconfig 4s -trace reconfig.trace.json
	$(GO) run ./cmd/mccs-trace summarize reconfig.trace.json

# telemetry samples the same run through the live metrics plane and
# renders the operator view: per-tenant goodput, busiest links, SLO
# violations (DESIGN.md §9.2).
telemetry:
	$(GO) run ./cmd/mccs-reconfig -run 6s -bg 2s -reconfig 4s -telemetry reconfig.telemetry.jsonl
	$(GO) run ./cmd/mccs-top reconfig.telemetry.jsonl

# doctor runs the online health-diagnosis smoke (DESIGN.md §13): the
# contended Fig. 7 run with the diagnosis engine attached live, writing
# the incident JSONL CI uploads as an artifact, then replaying the trace
# through mccs-doctor to print the incident timeline (live and replay
# agree on the incident set by construction).
doctor:
	$(GO) run ./cmd/mccs-reconfig -run 6s -bg 2s -reconfig 4s -trace doctor.trace.json -telemetry doctor.telemetry.jsonl -doctor doctor.incidents.jsonl
	$(GO) run ./cmd/mccs-doctor doctor.trace.json doctor.telemetry.jsonl

# self-heal runs the closed-loop recovery smoke (DESIGN.md §14): the
# chaos self-heal scenario with the diagnosis engine and the remediation
# daemon attached, sweeping a few seeds and writing the deterministic
# remediation event log CI uploads as an artifact.
self-heal:
	$(GO) run ./cmd/mccs-selfheal -seeds 4 -jsonl selfheal.remediation.jsonl

# churn runs the tenant-lifecycle smoke (DESIGN.md §12): the default
# 8-job seeded arrival stream with churn-triggered reconfiguration,
# printing per-job JCT/queueing delay and writing the sampled telemetry
# series CI uploads as an artifact.
churn:
	$(GO) run ./cmd/mccs-churn -telemetry churn.telemetry.jsonl
	$(GO) run ./cmd/mccs-top churn.telemetry.jsonl
