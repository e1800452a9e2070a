"""The three schemes evaluated in §4, expressed as loading policies.

All schemes share the meta-HNSW and the remote layout; they differ only in
how sub-HNSW clusters travel from the memory pool to the compute pool:

* **Naive d-HNSW** — one blocking fetch per (query, cluster) pair: no
  cache, no batch-level deduplication, no doorbell batching, nothing in
  flight behind search.
* **d-HNSW w/o doorbell** — meta-HNSW caching and query-aware loading
  (dedup + cluster cache), but discontinuous clusters are read in one
  round trip *each*.
* **d-HNSW** — everything above plus doorbell batching: discontinuous
  clusters fetched in a single network round trip per doorbell ring.

Without doorbell batching every WQE is a round trip of its own, so a
fetch of a group's second member (tail word + live slots, then the blob:
``layout.group_layout.cluster_read_ranges``) costs the first two schemes
two round trips whenever the slots it skips would take longer to move
than a round trip does — the cheaper choice under their own cost, which
is why naive's round trips per query sit above ``nprobe``.
"""

from __future__ import annotations

import dataclasses
import enum

__all__ = ["Scheme", "SchemePolicy", "policy_for"]


class Scheme(enum.Enum):
    """Evaluation schemes of the paper (§4)."""

    NAIVE = "naive-d-hnsw"
    NO_DOORBELL = "d-hnsw-no-doorbell"
    DHNSW = "d-hnsw"


@dataclasses.dataclass(frozen=True)
class SchemePolicy:
    """Loading behaviour toggles derived from a scheme.

    ``query_aware_loading`` is §3.3's pair: a batch fetches each cluster
    it needs once (deduplicated) and offers what it fetched to the
    cluster cache."""

    query_aware_loading: bool
    doorbell_batching: bool


_POLICIES = {
    Scheme.NAIVE: SchemePolicy(query_aware_loading=False,
                               doorbell_batching=False),
    Scheme.NO_DOORBELL: SchemePolicy(query_aware_loading=True,
                                     doorbell_batching=False),
    Scheme.DHNSW: SchemePolicy(query_aware_loading=True,
                               doorbell_batching=True),
}


def policy_for(scheme: Scheme) -> SchemePolicy:
    """The loading policy implementing ``scheme``."""
    return _POLICIES[scheme]
