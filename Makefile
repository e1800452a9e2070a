# Convenience targets for the d-HNSW reproduction.

.PHONY: install test bench bench-smoke examples figures loc knobs outputs clean

install:
	pip install -e .

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-smoke:
	DHNSW_BENCH_SMOKE=1 pytest benchmarks/ --benchmark-only

examples:
	python examples/quickstart.py
	python examples/rag_document_retrieval.py
	python examples/streaming_ingest.py
	python examples/scheme_comparison.py
	python examples/sharded_scaleout.py
	python examples/frontdoor_slo.py
	python examples/slo_tuning.py

# CI's paper-figures job, run locally: regenerate every
# benchmarks/results/*.txt table at full scale (~3 min), then fail if a
# committed table is stale, or a table is written that is not committed
# (git diff alone does not see untracked files).
figures:
	python -m pytest benchmarks -q
	git diff --exit-code benchmarks/results
	@git status --porcelain benchmarks/results | { ! grep .; }

# Python line totals: src/ is the count ROADMAP item 11 tracks; tests/
# and benchmarks/ beside it show lines moved out of src/ apart from
# lines deleted.
loc:
	@for dir in src tests benchmarks; do \
	printf '%-11s %6d\n' "$$dir/" "$$(find $$dir -name '*.py' | xargs cat | wc -l)"; \
	done

# Settable values per config surface (tests/test_config_knobs.py keeps
# each one set somewhere outside the tests).
knobs:
	@PYTHONPATH=src python -c "from tests.test_config_knobs import \
	SURFACES, knob_defaults; [print(f'{cls.__name__:<18} \
	{len(knob_defaults(cls)):>3}') for cls in SURFACES]"

# The artefacts DESIGN.md step 6 asks for.
outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
