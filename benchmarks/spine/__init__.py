"""The measurement spine: four fixed workloads, two clocks, per-layer spans.

See ``README.md`` in this directory.  Entry points:

* ``python3 benchmarks/spine/run.py --workload <name> --seed <n>
  --seconds <s> --trace <0|1>`` — the ``BENCHMARK.json`` command;
* ``PYTHONPATH=src python -m benchmarks.spine --workload <name|all>
  --seed <n> [--trace] [--scale smoke] [--selfcheck] [--out DIR]``.
"""
