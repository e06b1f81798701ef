# Build/test entry points for the CNT-Cache reproduction.
#
#   make tier1   fast gate: build + full unit tests
#   make tier2   deep gate: vet, race-enabled tests (covers the parallel
#                determinism test), and a cntbench -quick end-to-end smoke
#   make check   the differential/metamorphic harness alone (internal/check):
#                predictor grid vs oracle, encoding invariants, energy
#                conservation, serial-vs-parallel determinism
#   make lint    formatting and static-analysis gate: gofmt -l must be
#                empty and go vet must pass
#   make fuzz    run every native fuzz target for FUZZTIME (default 30s)
#   make fault   race-enabled fault-injection/resilience suite (device
#                faults, session salvage, crash-safe artifacts) plus a
#                quick E14 graceful-degradation batch
#   make obs-check  trace the E3 suite kernels with cntsim -trace-out
#                and -span-out, verify each event trace reconciles
#                through cntstat and each span trace through
#                cntstat -spans
#   make geom-check  geometry/energy gate: CACTI parse+calibration
#                goldens, the per-level energy-conservation audits, and
#                a quick E15 regeneration to a temp dir
#   make results regenerate results/ with the full (non-quick) sweeps
#   make results-check  regenerate E1-E15 into a temp dir and fail unless
#                it is byte-identical to the committed results/ (diff -r)
#   make bench-json  quick E3-suite batch emitting BENCH_E3.json plus a
#                fresh replay-throughput record BENCH_REPLAY.json — the
#                machine-readable records CI archives per commit. Run it
#                (on quiet hardware) and commit BENCH_REPLAY.json to
#                refresh the throughput reference.
#   make bench-replay-check  measure replay throughput and fail if it
#                regressed more than 20% vs the committed
#                BENCH_REPLAY.json (the CI bench job's gate)
#   make chaos-check  crash-recovery gate: race-enabled journal,
#                recovery, deadline, drain and chaos-injection suites,
#                then scripts/chaos_check.sh — a real race-enabled cntd
#                SIGKILLed mid-compare with seeded chaos (CHAOS_SEED,
#                default 42) and restarted over the same state dir,
#                asserting both journaled jobs converge to reports
#                byte-identical to cntsim's, deadlines validate, a
#                clean SIGTERM empties the journal, and cntstat -jobs
#                audits the final state dir
#   make serve-check  serving gate: race-enabled internal/server +
#                cmd/cntd + cmd/cntbench suites, then the live
#                scripts/serve_check.sh end-to-end (boot cntd on a
#                random port with tracing and the access log on,
#                submit a compare over HTTP, diff the report against
#                cntsim's stdout, scrape /metrics in Prometheus mode,
#                SIGTERM → exit 0, then render the committed span
#                trace with cntstat -spans)

GO ?= go
FUZZTIME ?= 30s

.PHONY: tier1 tier2 lint check fuzz fault obs-check geom-check results results-check bench bench-json bench-replay-check serve-check chaos-check

tier1:
	$(GO) build ./...
	$(GO) test ./...

lint:
	@fmt=$$(gofmt -l .); \
	if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; \
	fi
	$(GO) vet ./...

tier2:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/cntbench -quick -out $$(mktemp -d cntbench-smoke.XXXXXX -p $${TMPDIR:-/tmp}) >/dev/null

check:
	$(GO) test -v -run 'Test' ./internal/check/

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzTraceText$$' -fuzztime $(FUZZTIME) ./internal/check/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceBinary$$' -fuzztime $(FUZZTIME) ./internal/check/
	$(GO) test -run '^$$' -fuzz '^FuzzAsm$$' -fuzztime $(FUZZTIME) ./internal/check/
	$(GO) test -run '^$$' -fuzz '^FuzzConfigJSON$$' -fuzztime $(FUZZTIME) ./internal/check/
	$(GO) test -run '^$$' -fuzz '^FuzzEventsJSONL$$' -fuzztime $(FUZZTIME) ./internal/check/
	$(GO) test -run '^$$' -fuzz '^FuzzFaultConfig$$' -fuzztime $(FUZZTIME) ./internal/check/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceparent$$' -fuzztime $(FUZZTIME) ./internal/check/
	$(GO) test -run '^$$' -fuzz '^FuzzCACTIParams$$' -fuzztime $(FUZZTIME) ./internal/check/
	$(GO) test -run '^$$' -fuzz '^FuzzStatusDoc$$' -fuzztime $(FUZZTIME) ./internal/server/

# The resilience gate: the fault and atomicio packages in full, the
# fault/salvage/interrupt tests across the run engine and CLIs, and a
# quick E14 batch proving the graceful-degradation sweep stays
# deterministic end to end. Everything race-enabled.
fault:
	$(GO) test -race ./internal/fault/ ./internal/atomicio/
	$(GO) test -race -run 'Fault|Salvage|Retry|Partial|Cancel|Interrupt|Transient|Panic|Atomic' \
		./internal/core/ ./internal/run/ ./internal/experiments/ \
		./internal/check/ ./internal/config/ ./cmd/cntsim/ ./cmd/cntbench/
	$(GO) run ./cmd/cntbench -quick -only E14 \
		-out $$(mktemp -d cntbench-fault.XXXXXX -p $${TMPDIR:-/tmp}) >/dev/null

# Trace every kernel the E3 suite runs and push each trace through
# cntstat, whose reconciliation gate fails on any divergence between the
# per-event energy deltas and the run's final breakdown. Each run also
# records a span trace, audited by cntstat -spans (the span-nesting
# reconciliation of internal/check.ReconcileSpans).
OBS_KERNELS = mm fir bfs hashjoin sort stream stack list spmv hist
obs-check:
	@dir=$$(mktemp -d cnt-obs.XXXXXX -p $${TMPDIR:-/tmp}); \
	trap 'rm -rf "$$dir"' EXIT; \
	for k in $(OBS_KERNELS); do \
		echo "obs-check: $$k"; \
		$(GO) run ./cmd/cntsim -workload $$k -trace-out "$$dir/$$k.jsonl" -span-out "$$dir/$$k.spans.jsonl" >/dev/null || exit 1; \
		$(GO) run ./cmd/cntstat "$$dir/$$k.jsonl" >/dev/null || exit 1; \
		$(GO) run ./cmd/cntstat -spans "$$dir/$$k.spans.jsonl" >/dev/null || exit 1; \
	done

# The geometry/energy gate: the CACTI parse+calibration goldens and the
# per-level energy-conservation audits (internal/sram + the hierarchy
# tests of internal/check), then a quick E15 regeneration to a temp dir
# proving the size x associativity x levels sweep still runs end to end
# on every cacti-* device.
geom-check:
	$(GO) test -run 'CACTI|Calibrate|Hierarchy|AuditMultiLevel|AuditEncoded' \
		./internal/sram/ ./internal/check/ ./internal/cache/ ./internal/run/
	$(GO) run ./cmd/cntbench -quick -only E15 \
		-out $$(mktemp -d cntbench-geom.XXXXXX -p $${TMPDIR:-/tmp}) >/dev/null

results:
	$(GO) run ./cmd/cntbench -out results

results-check:
	@dir=$$(mktemp -d cntbench-results.XXXXXX -p $${TMPDIR:-/tmp}); \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/cntbench -out "$$dir" >/dev/null && diff -r "$$dir" results

bench:
	$(GO) test -short -bench=. -benchmem ./...

bench-json:
	$(GO) run ./cmd/cntbench -quick -only E3 -json BENCH_E3.json \
		-out $$(mktemp -d cntbench-json.XXXXXX -p $${TMPDIR:-/tmp}) >/dev/null
	$(GO) run ./cmd/cntbench -replay -quick -replay-json BENCH_REPLAY.json >/dev/null
	@echo "wrote BENCH_E3.json BENCH_REPLAY.json"

bench-replay-check:
	$(GO) run ./cmd/cntbench -replay -quick -replay-baseline BENCH_REPLAY.json

# The serving gate: every HTTP seam under -race, then a live daemon
# driven over real sockets and drained with a real SIGTERM.
serve-check:
	$(GO) test -race ./internal/server/ ./cmd/cntd/ ./cmd/cntbench/
	./scripts/serve_check.sh

# The crash-recovery gate: the durability suites under -race (journal
# round-trips, boot recovery, deadline taxonomy, drain edge cases,
# chaos injection, the in-process kill -9 end-to-end), then a real
# daemon SIGKILLed and recovered by scripts/chaos_check.sh.
chaos-check:
	$(GO) test -race ./internal/chaos/ ./internal/atomicio/
	$(GO) test -race -run 'Journal|Recover|Boot|Deadline|Drain|Chaos|Kill9|StatusDoc|EventsClient|Healthz|Admission|Jobs' \
		./internal/server/ ./cmd/cntd/ ./cmd/cntstat/
	./scripts/chaos_check.sh
