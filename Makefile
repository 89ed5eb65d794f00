GO ?= go
GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet hooks-lint bench-harness loc test test-race test-full build chaos sweep-smoke manyflow-smoke trace-smoke dist-smoke obs-smoke soak

## check: the PR gate — formatting, vet, the fault-hook lookup lint, the
## benchmark harness's own build and tests, and the race-enabled suite.
## The longest conformance sweeps are gated behind testing.Short(), so the
## race run stays fast; use `make test-full` for the unabridged suite.
check: fmt vet hooks-lint bench-harness test-race

fmt:
	@out="$$(gofmt -l $(GOFILES))"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

## hooks-lint: every QUICBENCH_TEST_* fault hook is declared in
## internal/faults/hooks.go and read through faults.Hook; an os.Getenv on
## one anywhere else in non-test code fails the gate.
hooks-lint:
	@out="$$(grep -rnE 'Getenv\("QUICBENCH_TEST|Getenv\(Env' --include='*.go' --exclude='*_test.go' . | grep -v '^./internal/faults/hooks.go:')"; \
	if [ -n "$$out" ]; then \
		echo "fault hooks must be read through faults.Hook (internal/faults/hooks.go):"; echo "$$out"; exit 1; \
	fi

## bench-harness: benchmark/ builds against the public facade and a few
## internal packages; a change that breaks its imports must fail here, not
## in the driver's benchmark run.
bench-harness:
	$(GO) vet ./benchmark
	$(GO) test ./benchmark

## loc: non-blank, non-test Go lines — in the three packages that serve
## trials remotely (runner, dist, isolate) and module-wide outside
## benchmark/ — the counts simplification PRs are measured by.
loc:
	@echo "runner+dist+isolate: $$(find internal/runner internal/dist internal/isolate -name '*.go' -not -name '*_test.go' | xargs cat | grep -cv '^\s*$$')"
	@echo "module (excl. benchmark/): $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | grep -cv '^\s*$$')"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race -short ./...

test-full:
	$(GO) test -count=1 ./...

## chaos: quick demo of the fault-injection degradation sweep.
chaos:
	$(GO) run ./cmd/quicbench chaos -duration 4s -trials 2

## sweep-smoke: exercise the supervised runner end to end — the resume
## determinism tests under the race detector, then a tiny checkpointed CLI
## sweep interrupted mid-way (-abort-after, exit 130 expected) and resumed
## from its journal; once in-process and once under -isolate (each cell in
## a crash-isolated `_trial` child).
sweep-smoke:
	$(GO) test -race -count=1 -run 'TestResume|TestSweepResume|TestRunSweepFacade|TestIsolated' ./internal/runner ./internal/core .
	$(GO) build -race -o /tmp/quicbench-sweep-smoke ./cmd/quicbench
	@for mode in "" "-isolate"; do \
		rm -f /tmp/quicbench-sweep-smoke.jsonl; \
		echo "sweep-smoke: mode '$$mode'"; \
		/tmp/quicbench-sweep-smoke sweep $$mode -stacks quicgo,lsquic,xquic -ccas cubic \
			-duration 2s -trials 2 -checkpoint /tmp/quicbench-sweep-smoke.jsonl -abort-after 1; \
		status=$$?; if [ $$status -ne 130 ]; then \
			echo "sweep-smoke: interrupted run exited $$status, want 130"; exit 1; fi; \
		/tmp/quicbench-sweep-smoke sweep $$mode -stacks quicgo,lsquic,xquic -ccas cubic \
			-duration 2s -trials 2 -checkpoint /tmp/quicbench-sweep-smoke.jsonl -resume \
			|| exit 1; \
	done
	@rm -f /tmp/quicbench-sweep-smoke /tmp/quicbench-sweep-smoke.jsonl
	@echo "sweep-smoke: ok"

## manyflow-smoke: the many-flow traffic engine end to end — the churn
## invariant, determinism, and sampler suites under the race detector
## (conservation, cwnd/in-flight bounds, generation-checked reuse, the
## journal/qlog byte-equality sweeps, and the Poisson/bounded-Pareto
## statistical checks), then a seeded CLI population run through the full
## per-cohort conformance pipeline.
manyflow-smoke:
	$(GO) test -race -count=1 \
		-run 'TestManyFlow|TestRunManyFlowTrial|TestResolveCohorts|TestExecuteCellSpecManyFlow|TestSpec|TestParseSpec|TestExponentialMean|TestBoundedPareto' \
		./internal/traffic ./internal/stats ./internal/core .
	$(GO) run ./cmd/quicbench manyflow -bw 300 -duration 2s -trials 2 -seed 5
	@echo "manyflow-smoke: ok"

## trace-smoke: the observability loop end to end — a traced one-cell
## sweep with the live progress line and JSONL status snapshots, then
## schema-validation of every trace file and a per-file event histogram.
## CI uploads the trace directory (TRACE_SMOKE_DIR overrides where it
## lands) as an artifact for eyeballing cwnd trajectories.
TRACE_SMOKE_DIR ?= /tmp/quicbench-trace-smoke
trace-smoke:
	$(GO) build -o /tmp/quicbench-trace ./cmd/quicbench
	@rm -rf $(TRACE_SMOKE_DIR)
	/tmp/quicbench-trace sweep -stacks quicgo -ccas cubic -duration 3s -trials 1 \
		-trace $(TRACE_SMOKE_DIR)/traces -trace-packets -progress \
		-status $(TRACE_SMOKE_DIR)/status.jsonl
	/tmp/quicbench-trace trace -check $(TRACE_SMOKE_DIR)/traces
	/tmp/quicbench-trace trace $(TRACE_SMOKE_DIR)/traces
	@test -s $(TRACE_SMOKE_DIR)/status.jsonl || { echo "trace-smoke: empty status file"; exit 1; }
	@rm -f /tmp/quicbench-trace
	@echo "trace-smoke: ok"

## dist-smoke: the distributed sweep fabric end to end on loopback — a
## coordinator shards a seeded campaign across three workers, one worker
## is SIGKILLed mid-campaign (its cells re-dispatch), then the coordinator
## is SIGKILLed mid-journal and restarted with -resume against the
## surviving, reconnecting fleet. The final journal must be byte-identical
## to an uninterrupted single-process run.
dist-smoke:
	./scripts/dist_smoke.sh

## obs-smoke: the fleet observability plane end to end on loopback — a
## coordinator runs a distributed campaign with -obs-addr, the script
## scrapes /metrics mid-campaign (valid Prometheus text, histogram
## families, per-worker series) and again during the -obs-wait linger,
## asserting the fleet-summed trial counter equals the journal's record
## count and that the scraped campaign's journal is byte-identical to an
## unobserved single-process run (observability is read-only).
obs-smoke:
	./scripts/obs_smoke.sh

## soak: a short seeded chaos sweep under the race detector with crash
## isolation on — one cell wedges (reaped by heartbeat stall, classified
## timeout), one panics (recovered in the child, classified panic), one
## allocates without bound (killed by the soft memory ceiling's self-check,
## classified OOM) — while a healthy cell completes. The sweep must finish
## with exit 1 (classified failures, no crash) and journal every outcome.
soak:
	$(GO) build -race -o /tmp/quicbench-soak ./cmd/quicbench
	@rm -f /tmp/quicbench-soak.jsonl
	QUICBENCH_TEST_WEDGE=lsquic QUICBENCH_TEST_PANIC=xquic QUICBENCH_TEST_MEMHOG=mvfst \
	/tmp/quicbench-soak sweep -isolate -stacks quicgo,lsquic,xquic,mvfst -ccas cubic \
		-duration 2s -trials 2 -seed 7 -retries 2 -stall-timeout 2s -mem-limit 64 \
		-obs-addr 127.0.0.1:0 -checkpoint /tmp/quicbench-soak.jsonl; \
	status=$$?; if [ $$status -ne 1 ]; then \
		echo "soak: chaos sweep exited $$status, want 1 (classified failures)"; exit 1; fi
	@grep -q '"outcome":"ok"' /tmp/quicbench-soak.jsonl || { echo "soak: no healthy cell completed"; exit 1; }
	@grep -q 'heartbeat' /tmp/quicbench-soak.jsonl || { echo "soak: wedge not classified as a heartbeat timeout"; exit 1; }
	@grep -q 'panic' /tmp/quicbench-soak.jsonl || { echo "soak: injected panic not classified"; exit 1; }
	@grep -qi 'memory\|ceiling' /tmp/quicbench-soak.jsonl || { echo "soak: memory blowout not classified"; exit 1; }
	@rm -f /tmp/quicbench-soak /tmp/quicbench-soak.jsonl
	@echo "soak: ok"
