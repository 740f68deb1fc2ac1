# Entry points for the growing test suite and the benchmarks.
#
#   make test          - full suite (tier-1 gate; includes slow fuzz tests)
#   make test-fast     - quick suite: everything except @pytest.mark.slow
#   make test-parallel - multi-process tile-executor tests (@pytest.mark.parallel)
#   make serve-smoke   - start the join service, drive one request, shut down
#   make bench-engine  - streaming-vs-batched engine benchmark, quick scale
#   make bench-parallel - measured vs LPT-modeled parallel speedup, quick scale
#   make bench-refine  - per-pair loop vs batched exact step, quick scale
#   make bench-kernels - numpy vs C kernels (>= 3x bar) and builders (>= 5x), quick scale
#   make bench-session - warm-session reuse benchmark, quick scale
#   make bench-tree    - grid vs tree-guided task formation benchmark, quick scale
#   make bench-service - concurrent join-service benchmark, quick scale
#   make bench-proximity - parallel distance/kNN join benchmark, quick scale
#   make bench-store   - persistent-store warm-start benchmark, quick scale
#   make e2e-warm      - e2e benchmark, warm_serial only: gated metrics + layer trace
#   make e2e-service   - e2e benchmark, service_mixed only: gated metrics

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: test test-fast test-parallel serve-smoke bench-engine bench-parallel \
	bench-refine bench-kernels bench-session bench-tree \
	bench-service bench-proximity bench-store e2e-warm e2e-service

test:
	$(PYTEST) -x -q

test-fast:
	$(PYTEST) -x -q -m "not slow"

test-parallel:
	$(PYTEST) -q -m parallel

serve-smoke:
	PYTHONPATH=src python scripts/serve_smoke.py

bench-engine:
	REPRO_BENCH_SCALE=quick $(PYTEST) -q benchmarks/bench_engine_batched.py

bench-parallel:
	REPRO_BENCH_SCALE=quick $(PYTEST) -q benchmarks/bench_parallel_exec.py

bench-refine:
	REPRO_BENCH_SCALE=quick $(PYTEST) -q benchmarks/bench_refine.py

bench-kernels:
	REPRO_BENCH_SCALE=quick $(PYTEST) -q benchmarks/bench_kernels.py

bench-session:
	REPRO_BENCH_SCALE=quick $(PYTEST) -q benchmarks/bench_session.py

bench-tree:
	REPRO_BENCH_SCALE=quick $(PYTEST) -q benchmarks/bench_tree_partition.py

bench-service:
	REPRO_BENCH_SCALE=quick $(PYTEST) -q benchmarks/bench_service.py

bench-proximity:
	REPRO_BENCH_SCALE=quick $(PYTEST) -q benchmarks/bench_proximity.py

bench-store:
	REPRO_BENCH_SCALE=quick $(PYTEST) -q benchmarks/bench_store.py

e2e-warm:
	python3 benchmarks/e2e/run.py --workload warm_serial --seed 7 --trace 1

e2e-service:
	python3 benchmarks/e2e/run.py --workload service_mixed --seed 7 --trace 0
