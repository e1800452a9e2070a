"""The spine's only statistics helpers: one percentile, one robust mean,
one answer digest."""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["MIN_BEYOND", "answer_digest", "midmean", "percentile"]

#: A percentile is reported only with at least this many samples beyond
#: it; fewer and the "tail" is two or three arbitrary points.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``samples``.

    Raises :class:`ValueError` rather than report a percentile that has
    fewer than :data:`MIN_BEYOND` samples on its far side.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    values = np.sort(np.asarray(samples, dtype=np.float64))
    beyond = values.size * min(q, 1.0 - q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {values.size} samples has only {beyond:.1f} "
            f"beyond it (need {MIN_BEYOND})")
    rank = max(1, math.ceil(q * values.size))
    return float(values[rank - 1])


def midmean(values: Sequence[float],
            weights: Sequence[float] | None = None) -> float:
    """Interquartile mean: the (weighted) mean of the middle half.

    The wall-clock estimator of the spine.  Sorted by value, the lowest
    and the highest quarter of the total weight are dropped (a sample
    straddling a cut counts with the part inside).  Like a median it
    ignores a slow episode that hits under a quarter of the calls; unlike
    a median it stays put when the calls' costs are spread wide, as they
    are under churn (same seed, ten windows: 4.7% quartile spread against
    5.9% for the median; on ``hot_batch`` 3.7% against 6.5% for a sum).
    """
    values = np.asarray(values, dtype=np.float64)
    weights = (np.ones_like(values) if weights is None
               else np.asarray(weights, dtype=np.float64))
    order = np.argsort(values, kind="stable")
    upper = np.cumsum(weights[order])
    lower = upper - weights[order]
    total = upper[-1]
    inside = np.clip(np.minimum(upper, 0.75 * total)
                     - np.maximum(lower, 0.25 * total), 0.0, None)
    return float((values[order] * inside).sum() / inside.sum())


def answer_digest(answers: Iterable[tuple[np.ndarray, np.ndarray]]) -> str:
    """SHA-256 over every answer's ids (int64) and distances (float32),
    in order — two runs agree on it only if they agree bit for bit."""
    digest = hashlib.sha256()
    for ids, distances in answers:
        digest.update(np.ascontiguousarray(ids, dtype=np.int64).tobytes())
        digest.update(
            np.ascontiguousarray(distances, dtype=np.float32).tobytes())
    return digest.hexdigest()
