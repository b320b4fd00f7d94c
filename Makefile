GO ?= go

.PHONY: check build vet test race deprecations loc bench bench-smoke figures smoke-wire smoke-faults smoke-resume smoke-serve smoke-iterate smoke-elastic fuzz perf-smoke

## check: the CI gate — vet, the deprecation sweep, build, the full test
## suite under the race detector, the multi-process smoke (every use case
## over 4 real worker processes, sinks verified against serial), the
## fault-injection smoke (kill one peer, recover, verify the sinks against
## serial), the resume smoke
## (kill every rank, restart from the journals, verify the sinks against
## serial), the service smoke (bfserve on a loopback port, the use cases
## submitted over HTTP, digests verified, drained) and the iterative-loop
## smoke (register-iter over 4 real processes on the shm tier) and the
## elastic smoke (2 real processes, 2 more joining mid-run, 1 gracefully
## drained, digests verified against serial) and the benchmark smoke (every
## BENCHMARK.json workload once on tiny inputs, sink digests checked
## against serial).
check: vet deprecations build race smoke-wire smoke-faults smoke-resume smoke-serve smoke-iterate smoke-elastic bench-smoke

## bench: the repository benchmark (BENCHMARK.json) — the whole suite with
## its closing layer report; see bench/README.md.
bench:
	bash bench/run.sh

## bench-smoke: the benchmark harness on tiny inputs with one-run trials;
## it checks every workload end to end and measures nothing.
bench-smoke:
	bash bench/run.sh -smoke

## deprecations: the API-freshness gate — after the functional-options
## migration no deprecated symbol may remain (or be newly introduced).
deprecations:
	@! grep -rn "Deprecated:" --include='*.go' . || \
		(echo "deprecations: deprecated symbols remain (listed above)"; exit 1)

## loc: non-blank, non-comment, non-test Go lines per package under
## internal/ and cmd/, and their total — the code-size figure simplicity
## PRs quote — then the test code (non-blank, non-comment lines of every
## _test.go file plus the internal/check helper package, which the total
## also counts), then the surface counts: exported mpi.With* options,
## serve.Config fields, facade exports in babelflow.go, bfrun flags (the
## fs.*Var lines in cmd/bfrun/main.go), time.Sleep lines in _test.go files,
## and call sites of the standard log package (informational; nothing
## gates on it).
loc:
	@total=0; for d in internal/*/ cmd/*/; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | \
			grep -cv -e '^[[:space:]]*$$' -e '^[[:space:]]*//'); \
		printf '%6d  %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%6d  total\n' $$total
	@printf '%6d  test code (_test.go + internal/check)\n' \
		$$(find . \( -name '*_test.go' -o -path './internal/check/*.go' \) -exec cat {} + | \
			grep -cv -e '^[[:space:]]*$$' -e '^[[:space:]]*//')
	@printf '%6d  exported mpi.With*\n' $$(find internal/mpi -maxdepth 1 -name '*.go' ! -name '*_test.go' \
		-exec cat {} + | grep -c '^func With')
	@printf '%6d  serve.Config fields\n' \
		$$(awk '/^type Config struct/{f=1; next} f && /^}/{f=0} f && /^	[A-Z]/{n++} END{print n}' internal/serve/serve.go)
	@printf '%6d  facade exports (babelflow.go)\n' \
		$$(grep -cE '^(func|type|const|var) [A-Z]|^	[A-Z][A-Za-z0-9_]* +=' babelflow.go)
	@printf '%6d  bfrun flags\n' $$(grep -c 'fs\.[A-Za-z]*Var(' cmd/bfrun/main.go)
	@printf '%6d  time.Sleep in _test.go files\n' \
		$$(grep -r --include='*_test.go' 'time\.Sleep' . | wc -l)
	@printf '%6d  log.* call sites\n' $$(grep -rlE --include='*.go' '^(import )?[[:space:]]*"log"$$' . | \
		xargs -r cat | grep -cE '\blog\.[A-Z]')

build:
	$(GO) build ./...

## vet: go vet, then the format gate — fails when gofmt -l lists a file.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt: unformatted files:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## figures: regenerate the paper's evaluation figures.
figures:
	$(GO) run ./cmd/bfbench

## smoke-wire: run every use case across 4 real worker processes over the
## TCP transport — a static run, the one-epoch case of a membership-gate
## session — and verify the sinks against the serial reference.
smoke-wire:
	$(GO) build -o bin/bfrun ./cmd/bfrun
	./bin/bfrun -case mergetree -runtime mpi -transport tcp -ranks 4
	./bin/bfrun -case render   -runtime mpi -transport tcp -ranks 4
	./bin/bfrun -case register -runtime mpi -transport tcp -ranks 4

## smoke-faults: run every use case on 4 ranks with one peer killed on the
## first epoch, recover via lineage-ledger replay, and verify the recovered
## sink digests byte-for-byte against the serial reference.
smoke-faults:
	$(GO) run ./cmd/bfrun -faults

## smoke-resume: for every use case (and the iterative loop, killed
## mid-iteration), kill EVERY rank (including rank 0) of a journaled
## 4-process TCP run mid-flight, then restart over the same journal
## directory and verify the resumed sink digests byte-for-byte against the
## serial reference — replaying the journaled prefix instead of
## re-executing it.
smoke-resume:
	$(GO) build -o bin/bfrun ./cmd/bfrun
	@set -e; for c in mergetree render register register-iter; do \
		dir=$$(mktemp -d); \
		./bin/bfrun -case $$c -journal $$dir -kill-all-after 1 -ranks 4; \
		./bin/bfrun -case $$c -resume $$dir -ranks 4; \
		rm -rf $$dir; \
	done

## smoke-serve: start a real bfserve instance on a loopback port, submit
## the three use cases over HTTP, verify every digest against the one-shot
## serial reference, drain and shut down.
smoke-serve:
	$(GO) build -o bin/bfserve ./cmd/bfserve
	./bin/bfserve -smoke

## smoke-iterate: run the iterative registration refinement loop
## (core.Iterate) across 4 real worker processes on the shared-memory
## tier, verifying the converged sinks against the serial reference (its
## kill-all/resume cycle is smoke-resume's register-iter round).
smoke-iterate:
	$(GO) build -o bin/bfrun ./cmd/bfrun
	./bin/bfrun -case register-iter -runtime mpi -transport tcp -ranks 4 -wire-tier shm

## smoke-elastic: live membership over real processes — start the merge
## tree on 2 workers, fork 2 joiners mid-run, gracefully drain one member
## (its journaled lineage is adopted and replayed by the survivors), and
## verify the final sink digests byte-for-byte against the serial
## reference. The run is paced so the drain lands mid-run; the target fails
## unless the summary reports the drain (drain=1).
smoke-elastic:
	$(GO) build -o bin/bfrun ./cmd/bfrun
	@dir=$$(mktemp -d); \
	out=$$(./bin/bfrun -case mergetree -elastic -ranks 2 -join 2 -join-after 150ms \
		-drain 1 -drain-after 400ms -elastic-pace 60ms -journal $$dir -wire-tier tcp); \
	status=$$?; rm -rf $$dir; echo "$$out"; \
	test $$status -eq 0 || exit $$status; \
	echo "$$out" | grep -q ' drain=1 ' || { echo "smoke-elastic: the run drained nothing (want drain=1)"; exit 1; }

## fuzz: short fuzz smoke of the wire frame decoder, of the control-frame
## codec (every accepted body must re-encode byte for byte; seeded from the
## golden control frames TestControlFramesGolden pins), of the merge-tree
## decoder, of the image decoder, of the
## sparse compositor against the dense one and of the MPI rank kernel's
## interleavings (longer runs: go test -fuzz=FuzzFrameDecode or
## -fuzz=FuzzHandshakeDecode ./internal/wire, go test -fuzz=FuzzTreeDecode
## ./internal/mergetree, go test -fuzz=FuzzImageDecode or
## -fuzz=FuzzComposite ./internal/render, go test -fuzz=FuzzRankKernel
## ./internal/mpi).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzHandshakeDecode -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzTreeDecode -fuzztime=10s ./internal/mergetree
	$(GO) test -run='^$$' -fuzz=FuzzImageDecode -fuzztime=10s ./internal/render
	$(GO) test -run='^$$' -fuzz=FuzzComposite -fuzztime=10s ./internal/render
	$(GO) test -run='^$$' -fuzz=FuzzRankKernel -fuzztime=10s ./internal/mpi

## perf-smoke: the CI perf job, defined only here — every wire benchmark
## (all transport tiers), once plain and once under the race detector, and
## every journal append benchmark (all fsync policies) at a fixed
## iteration count so hot-path regressions fail loudly, then the wire
## package and the conformance matrix (tcp, unix, shm) under the race
## detector, then the seeded executor pool tests (pop order against a
## reference model, cross-home wake-ups) 50 times under the
## race detector and the pool benchmark (ns per item on two homes against
## one), then the graph-plan benchmarks (compile and cold run of the
## 16k-task graph) and the data kernels (block extraction of a 256³ field,
## 256² image encode and decode, a render leaf of a 256³ field in 32
## blocks from its extracted block and in place, the leaf inputs of that
## render, one internal compositing node of that render) and the
## merge-tree kernels (a leaf's local tree, a correction merge, a
## segmentation) and the registration search (a full NCC window,
## East and South) and set-up (the 6×6 refinement loop built, placed,
## initialized and seeded) and the engine benchmarks (recovery from a
## killed peer or a membership change, loop-combinator overhead; each run
## checked against serial) once each so
## they cannot rot, then the allocation pins (plan, cold and warm runs, what
## tracing adds per task, block extraction, the render leaf, its inputs
## and the image codec, the merge-tree kernels, and the registration
## search, process task and set-up).
perf-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=100x ./internal/wire
	$(GO) test -race -run='^$$' -bench=. -benchtime=100x ./internal/wire
	$(GO) test -run='^$$' -bench=. -benchtime=100x ./internal/journal
	$(GO) test -race -count=1 ./internal/wire
	$(GO) test -race -count=1 ./internal/conformance
	$(GO) test -race -count=50 -run='^TestPool(OrderMatchesReference|NoLostWakeups)$$' ./internal/fabric
	$(GO) test -run='^$$' -bench='^BenchmarkPool$$' -benchtime=100000x ./internal/fabric
	$(GO) test -run='^$$' -bench='^BenchmarkCompile$$' -benchtime=1x ./internal/core
	$(GO) test -run='^$$' -bench='^BenchmarkColdRun16k$$' -benchtime=1x ./internal/mpi
	$(GO) test -run='^$$' -bench='^BenchmarkExtract$$' -benchtime=1x ./internal/data
	$(GO) test -run='^$$' -bench='^Benchmark(Image(Serialize|Deserialize)|RenderBlock|Composite|InitialInputs)$$' -benchtime=1x ./internal/render
	$(GO) test -run='^$$' -bench='^Benchmark(FromField|Merge|Segment)$$' -benchtime=1x ./internal/mergetree
	$(GO) test -run='^$$' -bench='^Benchmark(Correlate|IterativeSetup)$$' -benchtime=1x ./internal/register
	$(GO) test -run='^$$' -bench='Recovery|IterateOverhead' -benchtime=1x ./internal/conformance
	$(GO) test -count=1 -run='AllocationPins' ./internal/core ./internal/mpi ./internal/data ./internal/render ./internal/mergetree ./internal/register
