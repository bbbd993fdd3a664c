PYTHON ?= python

.PHONY: test smoke bench

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Benchmark-suite smoke run: correctness assertions only, timing
# comparisons skipped (REPRO_CI) and pytest-benchmark timing disabled.
smoke:
	REPRO_CI=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_microbench_core.py -q --benchmark-disable

# The end-to-end benchmark: every workload, results on stdout (see
# benchmarks/e2e/README.md; add --out PATH to keep a result set).
bench:
	python3 benchmarks/e2e/run.py
