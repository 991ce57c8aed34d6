# Developer loop shortcuts.  Tier-1 (`make test`) is what CI runs and what
# the acceptance gate measures; `make quick` skips the @pytest.mark.slow
# end-to-end tests (full optimization loops, process pools, model training)
# for a tighter edit-test cycle.

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: test quick bench-smoke serve-smoke

test:
	$(PYTEST) -x -q

quick:
	$(PYTEST) -x -q -m "not slow"

bench-smoke:
	PYTHONPATH=src python benchmarks/bench_surrogate_hotpath.py --smoke
	PYTHONPATH=src python benchmarks/bench_workload_parallel.py --smoke
	PYTHONPATH=src python benchmarks/bench_exec_backends.py --smoke
	PYTHONPATH=src python benchmarks/bench_batch_ask.py --smoke
	PYTHONPATH=src python benchmarks/bench_plan_cache.py --smoke
	PYTHONPATH=src python benchmarks/bench_faults.py --smoke
	PYTHONPATH=src python benchmarks/bench_fabric.py --smoke
	PYTHONPATH=src python benchmarks/bench_serve.py --smoke
	PYTHONPATH=src python benchmarks/bench_obs.py --smoke
	PYTHONPATH=src python benchmarks/bench_exec_kernels.py --smoke
	PYTHONPATH=src python benchmarks/bench_planner.py --smoke

serve-smoke:
	PYTHONPATH=src python benchmarks/bench_serve.py --smoke
