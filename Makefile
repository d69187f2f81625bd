# Convenience targets for the structured-data reproduction.

PYTHON ?= python3

.PHONY: install test lint lint-changed lint-conc hygiene bench bench-json bench-serve bench-store perfbench perfbench-selftest artifacts examples clean

install:
	pip install -e . && pip install pytest pytest-benchmark hypothesis

test:
	$(PYTHON) -m pytest tests/

# reprolint: AST-based invariant linter (RNG discipline, seed threading,
# layering DAG, API hygiene).  See docs/static_analysis.md.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.devtools.lint src tests benchmarks

# Pre-commit variant: lints only files staged in the git index.  Heavy
# whole-project analyses (CONC001/CONC003) are skipped for speed; the
# full `lint` / `lint-conc` targets and CI still run them.
lint-changed:
	PYTHONPATH=src $(PYTHON) -m repro.devtools.lint --changed-only

# Concurrency & import-budget pass only: the whole-project analyses
# over the serve-path tiers.  See docs/static_analysis.md.
lint-conc:
	PYTHONPATH=src $(PYTHON) -m repro.devtools.lint \
		src/repro/serve src/repro/perf src/repro/store \
		--select CONC,IMP001

# Repo hygiene: no tracked or orphaned bytecode under src/.
hygiene:
	$(PYTHON) .github/scripts/check_hygiene.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The PR acceptance matrix: run_everything across (workers × cache),
# byte-identity check included.  Writes benchmarks/output/perf_matrix.json,
# never over the committed BENCH_PR2.json record.
bench-json:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_matrix.py

# Serve-side latency benchmark: build artifacts, replay a seeded load
# against a self-hosted server.  Writes benchmarks/output/serve_bench.json;
# the committed BENCH_PR4.json and docs/performance.md stay untouched.
bench-serve:
	PYTHONPATH=src $(PYTHON) -m repro all artifacts/
	PYTHONPATH=src $(PYTHON) -m repro serve-bench artifacts/ \
		--seed 7 --clients 4 --requests 200 \
		--report benchmarks/output/serve_bench.json

# Storage-tier ladder: serve the same 100k-entity corpus from each
# backend (ram / mmap) in a fresh process, compare RSS high-water marks
# and latency.  Writes benchmarks/output/store_ladder.json, never over
# a committed BENCH_PR*.json record (`repro bench --history` reads those).
bench-store:
	PYTHONPATH=src $(PYTHON) benchmarks/store_ladder.py

# The repo's end-to-end benchmark (declared by BENCHMARK.json): both
# workloads, timed; each prints its metrics and a JSON verdict and exits
# non-zero on a wrong answer.  See perfbench/README.md.
perfbench:
	$(PYTHON) perfbench/run.py --workload serve-hot --seed 1 --seconds 22
	$(PYTHON) perfbench/run.py --workload serve-cold --seed 1 --seconds 22

# The benchmark's own machinery; seconds, no `repro all` run needed.
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

artifacts:
	$(PYTHON) -m repro all artifacts/

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/spread_of_data.py
	$(PYTHON) examples/tail_value.py
	$(PYTHON) examples/connectivity.py
	$(PYTHON) examples/full_pipeline.py
	$(PYTHON) examples/wrapper_induction.py
	$(PYTHON) examples/entity_resolution.py
	$(PYTHON) examples/source_discovery.py
	$(PYTHON) examples/extension_studies.py

clean:
	rm -rf artifacts/ benchmarks/output/ .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
