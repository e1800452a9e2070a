"""Construction-time and query-time parameters for HNSW.

Names follow Malkov & Yashunin (TPAMI 2018) and the hnswlib conventions the
paper's prototype inherits:

* ``m`` — max out-degree per node on layers >= 1 (the paper's "M"); layer
  0 allows ``2 * m``.
* ``ef_construction`` — beam width while inserting.
* ``ef_search`` — beam width while querying (the paper sweeps 1..48).
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigError

__all__ = ["HnswParams"]


@dataclasses.dataclass(frozen=True)
class HnswParams:
    """Immutable HNSW hyper-parameters.

    Levels are drawn with multiplier ``1 / ln(m)`` as in the original
    paper, which makes layer populations shrink geometrically by a factor
    of ``m``.  ``max_level`` caps the hierarchy height; the meta-HNSW of
    d-HNSW sets it to 2 (three layers: L0, L1, L2).
    """

    m: int = 16
    ef_construction: int = 200
    max_level: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ConfigError(f"m must be >= 2, got {self.m}")
        if self.ef_construction < 1:
            raise ConfigError(
                f"ef_construction must be >= 1, got {self.ef_construction}")
        if self.max_level is not None and self.max_level < 0:
            raise ConfigError(
                f"max_level must be >= 0, got {self.max_level}")

    @property
    def level_mult(self) -> float:
        """Level-sampling multiplier, ``1 / ln(m)``."""
        return 1.0 / math.log(self.m)

    def max_degree(self, level: int) -> int:
        """Degree bound for a given layer: ``2 * m`` on layer 0, else ``m``."""
        return 2 * self.m if level == 0 else self.m

    def replace(self, **changes: object) -> "HnswParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)
