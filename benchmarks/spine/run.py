"""The ``BENCHMARK.json`` command: ``python3 benchmarks/spine/run.py ...``.

Puts the checkout's ``src/`` (the program) and root (this package) on
``sys.path`` and hands over to :mod:`benchmarks.spine.cli`, so the
command names no path outside the benchmark's own directory.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/spine: no program to measure under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.spine.cli import main  # noqa: E402

sys.exit(main())
