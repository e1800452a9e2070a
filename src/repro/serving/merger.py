"""Merger stage: per-cluster candidates to final top-k answers.

Thin wrapper over :class:`repro.core.merge.TopKMerger`: the executor feeds
it candidates in deterministic cluster order during the waves, and this
stage finalizes the per-query heaps into :class:`QueryResult` rows
(applying the optional metadata filter) at the end of the batch.
"""

from __future__ import annotations

from typing import Callable

from repro.core.merge import TopKMerger
from repro.core.results import QueryResult
from repro.serving.trace import TraceContext, span

__all__ = ["Merger"]


class Merger:
    """Builds and finalizes the batch's top-k merger."""

    def create(self, num_queries: int, k: int,
               filter_fn: "Callable[[int], bool] | None") -> TopKMerger:
        """A merger for the batch; pruning is disabled under a filter so
        enough candidates survive post-filtering."""
        return TopKMerger(num_queries, k, prune=filter_fn is None)

    def finalize(self, merger: TopKMerger, num_queries: int, k: int,
                 filter_fn: "Callable[[int], bool] | None",
                 trace: TraceContext | None = None) -> list[QueryResult]:
        """Extract each query's final top-k rows."""
        with span(trace, "merge"):
            results = []
            for query_index in range(num_queries):
                ids, distances = merger.top(query_index, k, filter_fn)
                results.append(QueryResult(ids=ids, distances=distances))
        return results
