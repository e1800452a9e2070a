"""Serving layer: the staged execution pipeline behind ``DHnswClient``.

A batched query flows Planner → Fetcher → Decoder → Executor → Merger,
composed by :class:`ServingEngine`; a :class:`TraceContext` rides along
attributing wall/simulated time and bytes to each stage.  The layer talks
to remote memory exclusively through :mod:`repro.transport` (enforced by
``tests/test_layering.py``) and holds no index state — the client remains
the single owner of metadata, cache, and transport.
"""

from repro.serving.decoder import Decoder
from repro.serving.engine import ServingEngine
from repro.serving.executor import PlanExecution, WaveExecutor
from repro.serving.fetcher import Fetcher
from repro.serving.merger import Merger
from repro.serving.planner import Planner
from repro.serving.trace import StageReport, TraceContext

__all__ = [
    "Decoder",
    "Fetcher",
    "Merger",
    "PlanExecution",
    "Planner",
    "ServingEngine",
    "StageReport",
    "TraceContext",
    "WaveExecutor",
]
