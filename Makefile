PYTHON ?= python

.PHONY: test smoke bench bench-ab surface

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The numbers simplicity PRs quote: src/ size, what a user can set on
# the command line -- (command, option) pairs from build_parser(); the
# add_argument count beside it is call sites, which counts a shared
# _add_*_arg helper once however many commands use it -- the three
# executor modules (ROADMAP: one executor), config fields, and what in
# src/ only tests reach (scripts/reachability.py): the modules no
# command, script, e2e benchmark or example imports, then the functions,
# classes and methods no such code names -- a count that
# tests/test_reachability.py holds at zero beside the named survivors,
# each printed with its reason.
surface:
	@printf 'src/ physical lines: '; find src -name '*.py' -print0 | xargs -0 cat | wc -l
	@PYTHONPATH=src $(PYTHON) -c "import argparse; from repro.cli import build_parser; sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)); print('CLI (command, option) pairs:', sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction) for p in sub.choices.values() for a in p._actions))"
	@printf 'cli.py add_argument calls: '; grep -c add_argument src/repro/cli.py
	@printf 'executor lines (core/parallel.py + resilience/supervisor.py + serve/shards.py): '; cat src/repro/core/parallel.py src/repro/resilience/supervisor.py src/repro/serve/shards.py | wc -l
	@PYTHONPATH=src $(PYTHON) -c "import dataclasses as d; from repro.serve import ServeConfig; from repro.resilience import RetryPolicy; from repro.core.epoch import SloConfig; print('ServeConfig/RetryPolicy/SloConfig fields:', '/'.join(str(len(d.fields(c))) for c in (ServeConfig, RetryPolicy, SloConfig)))"
	@$(PYTHON) scripts/reachability.py

# Benchmark-suite smoke run: correctness assertions only, timing
# comparisons skipped (REPRO_CI) and pytest-benchmark timing disabled.
smoke:
	REPRO_CI=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_microbench_core.py -q --benchmark-disable

# The end-to-end benchmark: every workload, results on stdout (see
# benchmarks/e2e/README.md; add --out PATH to keep a result set).
bench:
	python3 benchmarks/e2e/run.py

# Parent-vs-change measurement: `make bench-ab BASE=<rev> [RUNS=N]
# [WORKLOAD=<name>]` makes N alternating pairs of suite runs (BASE
# exported under .bench_tmp/ and measured with this tree's
# benchmarks/e2e), then prints run.py's --compare table and the pairs
# each side won (scripts/bench_ab.py).  WORKLOAD narrows both sides to
# the named workloads (space-separated): ~1/7 of the wall time each.
BASE ?= HEAD
RUNS ?= 10
bench-ab:
	python3 scripts/bench_ab.py $(BASE) --runs $(RUNS) $(foreach w,$(WORKLOAD),--workload $(w))
