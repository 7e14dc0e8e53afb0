# Tier-1: build + unit tests (the gate every change must keep green).
.PHONY: test
test:
	go build ./...
	go test ./...

# Tier-2: every step CI's tier-2 job runs (vet, the race suite, the
# benchmarks once, the fuzzers, the benchmark module), defined once in
# scripts/check.sh.
.PHONY: check
check:
	scripts/check.sh

# Hot-path and experiment benchmarks with allocation counts.
.PHONY: bench
bench:
	go test -bench=. -benchmem -run '^$$' .

# Just the execution-engine benchmarks (batch compute + evaluation) at
# serial vs full parallelism.
.PHONY: bench-par
bench-par:
	go test -bench 'BenchmarkProcessBatch|BenchmarkEvaluate' -benchmem -run '^$$' .

# Observability demo: a ~200-iteration toy train writing a per-iteration
# JSONL timeline, then the final record. DESIGN.md §7 documents the schema;
# EXPERIMENTS.md maps each metric name to its paper artifact.
.PHONY: timeline-demo
timeline-demo:
	go run ./cmd/hetkg train -dataset fb15k -scale tiny -system hetkg-d \
		-machines 2 -epochs 3 -timeline out/timeline-demo.jsonl -timeline-every 5
	@echo "== final timeline record:"
	@tail -n 1 out/timeline-demo.jsonl

# Serving demo: train a tiny checkpoint, serve it, and run the three query
# endpoints once. DESIGN.md §9 documents the architecture.
.PHONY: serve-demo
serve-demo:
	go run ./cmd/hetkg train -dataset fb15k -scale tiny -epochs 2 -save out/serve-demo.ckpt
	go run ./cmd/hetkg serve -ckpt out/serve-demo.ckpt -listen 127.0.0.1:8080 & \
	    sleep 2; \
	    curl -s 'localhost:8080/v1/score?head=0&relation=0&tail=1'; echo; \
	    curl -s 'localhost:8080/v1/predict?entity=0&relation=0&k=5'; echo; \
	    curl -s 'localhost:8080/v1/neighbors?entity=0&k=5'; echo; \
	    kill %1
