"""The fabric cost model.

Simulated time charged for RDMA verbs and for ANN compute.  Defaults are
calibrated against published one-sided RDMA microbenchmarks for ConnectX-class
NICs (Kalia et al., ATC'16 — the paper's reference [11]):

* ~2 us round-trip for a small one-sided READ;
* 100 Gb/s line rate (the paper's ConnectX-6), i.e. 12.5 bytes/ns;
* ~0.3 us of PCIe DMA per additional work request in a doorbell batch;
* doorbell batches beyond ``doorbell_limit`` WQEs are split into multiple
  rings — the paper's §3.2 notes the NIC scalability trade-off.

Compute time is charged per distance evaluation, linear in dimensionality,
which is how vectorized SIMD kernels behave.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigError

__all__ = ["CostModel"]


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Latency/bandwidth constants for the simulated fabric.

    Attributes
    ----------
    base_rtt_us:
        Round-trip latency of one one-sided verb, excluding payload.
    bandwidth_gbps:
        Link rate of the memory node's NIC.  Payload serialization time is
        shared by *all* traffic to that node, which is what makes naive
        d-HNSW's redundant transfers so expensive.
    pcie_us_per_wqe:
        PCIe DMA cost for each work request the NIC must fetch; doorbell
        batching pays this per WQE but the RTT only once per ring.
    doorbell_limit:
        Maximum WQEs the NIC accepts per doorbell ring before the batch
        must be split (the §3.2 scalability trade-off).
    doorbell_split_penalty_us:
        Extra latency per additional ring when a batch is split.
    atomic_rtt_us:
        Round-trip latency of CAS / FAA.
    compute_us_per_component:
        Compute time per vector *component* per distance evaluation.
    compute_us_per_distance:
        Fixed overhead per distance evaluation (loop/branch cost).
    deserialize_us_per_kb:
        CPU time to deserialize one KiB of a fetched cluster blob into a
        searchable in-DRAM structure (parse + copy, ~10 GB/s).  Charged to
        the sub-HNSW compute bucket; this is why naive d-HNSW — which
        re-deserializes a cluster for every query that touches it — pays a
        sub-HNSW computation cost far above the caching schemes (Table 1).
    """

    base_rtt_us: float = 2.0
    bandwidth_gbps: float = 100.0
    pcie_us_per_wqe: float = 0.3
    doorbell_limit: int = 16
    doorbell_split_penalty_us: float = 1.0
    atomic_rtt_us: float = 2.0
    compute_us_per_component: float = 0.0004
    compute_us_per_distance: float = 0.02
    deserialize_us_per_kb: float = 0.1

    def __post_init__(self) -> None:
        for name in ("base_rtt_us", "bandwidth_gbps", "pcie_us_per_wqe",
                     "doorbell_split_penalty_us", "atomic_rtt_us",
                     "compute_us_per_component", "compute_us_per_distance",
                     "deserialize_us_per_kb"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.bandwidth_gbps == 0:
            raise ConfigError("bandwidth_gbps must be positive")
        if self.doorbell_limit < 1:
            raise ConfigError(
                f"doorbell_limit must be >= 1, got {self.doorbell_limit}")

    # ------------------------------------------------------------------
    @property
    def bytes_per_us(self) -> float:
        """Payload bytes the link serializes per microsecond."""
        return self.bandwidth_gbps * 1e9 / 8.0 / 1e6

    def transfer_us(self, nbytes: int) -> float:
        """Serialization time for a payload of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return nbytes / self.bytes_per_us

    def read_us(self, nbytes: int) -> float:
        """Total time of a single one-sided READ."""
        return self.base_rtt_us + self.pcie_us_per_wqe + self.transfer_us(nbytes)

    def write_us(self, nbytes: int) -> float:
        """Total time of a single one-sided WRITE."""
        return self.read_us(nbytes)

    def atomic_us(self) -> float:
        """Total time of a CAS or FAA (8-byte payload is negligible)."""
        return self.atomic_rtt_us + self.pcie_us_per_wqe

    def doorbell_rings(self, num_wqes: int) -> int:
        """Number of doorbell rings (i.e. network round trips) needed for
        a batch of ``num_wqes`` work requests."""
        if num_wqes <= 0:
            raise ValueError(f"num_wqes must be >= 1, got {num_wqes}")
        return math.ceil(num_wqes / self.doorbell_limit)

    def doorbell_read_us(self, sizes: list[int]) -> float:
        """Total time of a doorbell-batched READ of several regions.

        One base RTT per ring, one PCIe transaction per WQE, payload
        serialization for the total, plus a split penalty for every ring
        after the first.
        """
        if not sizes:
            return 0.0
        rings = self.doorbell_rings(len(sizes))
        total_bytes = sum(sizes)
        return (rings * self.base_rtt_us
                + (rings - 1) * self.doorbell_split_penalty_us
                + len(sizes) * self.pcie_us_per_wqe
                + self.transfer_us(total_bytes))

    def serial_read_us(self, sizes: list[int]) -> float:
        """Total time of several READs issued back to back *without*
        doorbell batching: each pays its own RTT and PCIe transaction.

        Used by ``read_batch_async`` when the caller's scheme has
        doorbell batching disabled, so the async path charges the same wire
        time as a loop of synchronous :meth:`read_us` calls.
        """
        return sum(self.read_us(n) for n in sizes)

    # ------------------------------------------------------------------
    def compute_us(self, num_distances: int, dim: int) -> float:
        """Compute time for ``num_distances`` evaluations at ``dim``."""
        if num_distances < 0 or dim < 0:
            raise ValueError("num_distances and dim must be >= 0")
        per_distance = (self.compute_us_per_distance
                        + self.compute_us_per_component * dim)
        return num_distances * per_distance

    def deserialize_us(self, nbytes: int) -> float:
        """CPU time to deserialize a fetched blob of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.deserialize_us_per_kb * nbytes / 1024.0

    # ------------------------------------------------------------------
    def shared_by(self, num_sharers: int) -> "CostModel":
        """The cost model one instance sees when ``num_sharers`` compute
        instances saturate the memory node's link concurrently.

        Under saturation a fair NIC gives each instance ``1/n`` of the
        line rate; round-trip and PCIe costs are per-instance and do not
        dilate.  This is how the evaluation reproduces the paper's
        three-servers-of-compute-versus-one-memory-node contention.
        """
        if num_sharers < 1:
            raise ConfigError(
                f"num_sharers must be >= 1, got {num_sharers}")
        return dataclasses.replace(
            self, bandwidth_gbps=self.bandwidth_gbps / num_sharers)
