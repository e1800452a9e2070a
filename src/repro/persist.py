"""Saving and restoring a built deployment.

Building a d-HNSW layout is the expensive offline step (partitioning plus
one HNSW construction per partition), so the library supports persisting a
deployment to a directory and restoring it without rebuilding:

* ``manifest.json`` — config, dimensions, allocator state, format version;
* ``meta.bin`` — the serialized meta-HNSW (same blob format as clusters);
* ``region.bin`` — a byte-exact image of the remote registered region,
  including the metadata block, every group, and all overflow records.

Restoring registers a fresh region on a new (simulated) memory node and
writes the image back, so restored deployments answer queries identically
— searches, inserts, and rebuilds all keep working.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

from repro.core.config import META_PARAMS, SUB_PARAMS, DHnswConfig
from repro.core.engine import RemoteLayout
from repro.core.meta_index import MetaHnsw
from repro.errors import ConfigError, LayoutError, SerializationError
from repro.hnsw.params import HnswParams
from repro.layout.allocator import RegionAllocator
from repro.layout.metadata import GlobalMetadata
from repro.layout.serializer import deserialize_cluster, serialize_cluster
from repro.rdma.control import MemoryDaemon
from repro.rdma.memory_node import MemoryNode

__all__ = ["save_deployment", "load_deployment"]

#: 2 since cluster blobs became ``DHN2``: a format-1 directory holds
#: ``DHN1`` blobs (``region.bin``, ``meta.bin``) this library cannot read.
_FORMAT_VERSION = 2


#: Config keys older manifests carry for fields that are constants now
#: (each only ever had one value in use), that nothing ever read
#: (``batch_size``), that chose a router (``adaptive_*``): a restored
#: deployment routes by the one distance-gap rule whatever they said —
#: that configured the retired PQ cold tier (``cold_tier`` and the two
#: knobs under it), which loads only where it was off, or that sized the
#: retired search worker pool (``search_workers``), which never changed
#: an answer.
_RETIRED_CONFIG_KEYS = {"mutation_retry_limit", "pq_bits", "vamana_degree",
                        "tier_ewma_halflife_us", "tier_hysteresis",
                        "batch_size", "adaptive_nprobe", "adaptive_alpha",
                        "cold_tier", "rerank_depth", "pq_subspaces",
                        "search_workers"}


def _legacy_params(params: HnswParams) -> dict:
    """``params`` as older manifests spelled it, retired fields at the
    only values they ever had (L2 is the only distance)."""
    return {**dataclasses.asdict(params), "metric": "l2",
            "m0": None, "level_mult": None, "extend_candidates": False,
            "keep_pruned_connections": True}


def _config_from_dict(data: dict) -> DHnswConfig:
    cold_tier = data.get("cold_tier", "off")
    if cold_tier != "off":
        # Its region holds cold extents and a codebook nothing reads any
        # more (fsck would call them leaks): rebuild it instead.
        raise ConfigError(
            f"manifest config has cold_tier={cold_tier!r}: the PQ cold "
            f"tier is retired — rebuild the deployment (a byte cap on the "
            f"cluster cache, hot_tier_budget_bytes, bounds DRAM instead)")
    data = {key: value for key, value in data.items()
            if key not in _RETIRED_CONFIG_KEYS}
    # Older manifests also carry the HNSW parameters, which are constants
    # now: a deployment built with any other values cannot be served.
    for key, params in (("meta_params", META_PARAMS),
                        ("sub_params", SUB_PARAMS)):
        saved = data.pop(key, None)
        if saved is not None and saved != _legacy_params(params):
            raise SerializationError(
                f"manifest {key} {saved} differs from the library's "
                f"{params} — the deployment was built with other HNSW "
                f"parameters")
    unknown = set(data) - {f.name for f in dataclasses.fields(DHnswConfig)}
    if unknown:
        raise SerializationError(
            f"manifest config has unknown key(s) {sorted(unknown)} — "
            f"written by a different version of this library?")
    return DHnswConfig(**data)


def save_deployment(path: "str | os.PathLike[str]", layout: RemoteLayout,
                    meta: MetaHnsw, config: DHnswConfig) -> None:
    """Persist a deployment directory at ``path`` (created if absent)."""
    directory = pathlib.Path(path)
    directory.mkdir(parents=True, exist_ok=True)

    region_image = layout.memory_node.read(layout.rkey, layout.addr(0),
                                           layout.region.length)
    (directory / "region.bin").write_bytes(region_image)
    (directory / "meta.bin").write_bytes(serialize_cluster(meta.index, 0))

    # No reader survives a restart, so the extents still inside their
    # grace period are free in the restored deployment.
    free = layout.allocator.free_extents() + [
        (entry.offset, entry.length) for entry in layout.retired.entries]
    manifest = {
        "format_version": _FORMAT_VERSION,
        "dim": layout.dim,
        "region_capacity": layout.region.length,
        "metadata_reserve": layout.allocator.metadata_reserve,
        "allocator_tail": layout.allocator.tail,
        "allocator_free_extents": free,
        "config": dataclasses.asdict(config),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))


def load_deployment(path: "str | os.PathLike[str]",
                    memory_node: MemoryNode | None = None
                    ) -> tuple[MetaHnsw, RemoteLayout, DHnswConfig]:
    """Restore a deployment saved by :func:`save_deployment`.

    A fresh region is registered on ``memory_node`` (or a new node) and
    the saved image written back byte-for-byte.
    """
    directory = pathlib.Path(path)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise SerializationError(f"{directory}: no manifest.json")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported deployment format "
            f"{manifest.get('format_version')!r} (this library reads "
            f"format {_FORMAT_VERSION}, whose cluster blobs are DHN2) — "
            f"rebuild the deployment")

    config = _config_from_dict(manifest["config"])
    region_image = (directory / "region.bin").read_bytes()
    if len(region_image) != manifest["region_capacity"]:
        raise SerializationError(
            f"region image is {len(region_image)} B, manifest says "
            f"{manifest['region_capacity']} B")

    node = memory_node if memory_node is not None else MemoryNode()
    daemon = MemoryDaemon(node)
    region = node.register(manifest["region_capacity"])
    node.write(region.rkey, region.base_addr, region_image)

    metadata = GlobalMetadata.unpack(
        region_image[: manifest["metadata_reserve"]])
    allocator = RegionAllocator(manifest["region_capacity"],
                                metadata_reserve=manifest["metadata_reserve"])
    used = manifest["allocator_tail"] - manifest["metadata_reserve"]
    if used < 0:
        raise LayoutError("manifest allocator tail precedes the reserve")
    if used > 0:
        allocator.allocate(used)
    allocator.restore_free_extents(
        [(int(offset), int(length))
         for offset, length in manifest["allocator_free_extents"]])

    layout = RemoteLayout(memory_node=node, region=region,
                          allocator=allocator, metadata=metadata,
                          dim=manifest["dim"], daemon=daemon)

    meta_index, _ = deserialize_cluster(
        (directory / "meta.bin").read_bytes(), META_PARAMS)
    meta = MetaHnsw.from_index(meta_index, META_PARAMS)
    return meta, layout, config
