# Convenience targets for the repro project.

PYTHON ?= python3

.PHONY: install test bench bench-json bench-smoke perfbench experiments examples verify clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-json:
	$(PYTHON) benchmarks/bench_kernels.py --output BENCH_kernels.json
	$(PYTHON) benchmarks/bench_engine.py --output BENCH_engine.json
	$(PYTHON) benchmarks/bench_tails.py --output BENCH_tails.json
	$(PYTHON) benchmarks/bench_aqm.py --output BENCH_AQM.json

bench-smoke:
	$(PYTHON) benchmarks/bench_engine.py --quick

# Repository benchmark (BENCHMARK.json): the self-test, then each
# workload on its own seed for BENCHMARK.json's run_seconds (25 s).
perfbench:
	$(PYTHON) perfbench/selftest.py
	$(PYTHON) perfbench/run.py --workload paper-open --seed 1 --seconds 25 --trace 0
	$(PYTHON) perfbench/run.py --workload sized-closed --seed 2 --seconds 25 --trace 0
	$(PYTHON) perfbench/run.py --workload chaos-serve --seed 3 --seconds 25 --trace 0

experiments:
	$(PYTHON) -m repro.experiments.runner all

examples:
	$(PYTHON) examples/quickstart.py 60
	$(PYTHON) examples/capacity_planning.py
	$(PYTHON) examples/scheduler_comparison.py 60
	$(PYTHON) examples/multi_tenant_consolidation.py 60
	$(PYTHON) examples/trace_toolkit.py
	$(PYTHON) examples/graduated_sla.py 60
	$(PYTHON) examples/shared_server_isolation.py 60
	$(PYTHON) examples/online_provisioning.py 60
	$(PYTHON) examples/storage_array_sim.py 40
	$(PYTHON) examples/trace_twin.py 60
	$(PYTHON) examples/brownout_monitoring.py 30

verify:
	$(PYTHON) -m repro.experiments.runner --verify

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
