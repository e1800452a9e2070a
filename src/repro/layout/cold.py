"""Cold-tier wire formats: PQ codebook blobs and cold cluster extents.

The tiered store keeps two on-region forms of every cluster: the
full-precision ``DHN1`` blob (hot tier, beam-searched in DRAM) and a
compact *cold extent* holding just the PQ codes.  A cold serve is one
RDMA READ of this extent, an ADC scan over the short codes, and a second
narrow READ of exactly the rerank candidates' full vectors out of the
paired hot blob's vector section.

Codebook blob (one per deployment, referenced from the metadata cold
directory):

====================  =======================================================
section               contents
====================  =======================================================
header                magic ``b"DHQ1"``, version u16, pad u16, dim u32,
                      num_subspaces u32, bits u32 (always 8)
centroids             num_subspaces x 256 x subspace_dim x f32
====================  =======================================================

Cold cluster extent:

====================  =======================================================
section               contents
====================  =======================================================
header                magic ``b"DHC1"``, version u16, pad u16,
                      cluster_id u32, num_nodes u32, num_subspaces u32,
                      vectors_offset u64, reserved i32 (-1),
                      reserved i32 (0)
labels                num_nodes x i64 (global dataset ids)
codes                 num_nodes x num_subspaces x u8, zero-padded to a
                      multiple of 8 bytes
====================  =======================================================

``vectors_offset`` is the region-relative byte offset of the paired
full-precision blob's vector section (same offset space as the metadata
block's ``blob_offset``) — node ``i``'s full vector lives at
``vectors_offset + 4 * dim * i`` — so the rerank READ needs no parsing
of the hot blob at all.  The two reserved words are fixed at ``-1`` /
``0`` so extents stay byte-identical to those saved deployments already
hold; the decoder rejects any other value.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

from repro.errors import SerializationError
from repro.pq.codebook import BITS, PqCodebook

__all__ = [
    "CODEBOOK_MAGIC",
    "COLD_MAGIC",
    "ColdCluster",
    "serialize_codebook",
    "deserialize_codebook",
    "codebook_blob_size",
    "serialize_cold_cluster",
    "deserialize_cold_cluster",
    "cold_extent_size",
]

CODEBOOK_MAGIC = b"DHQ1"
COLD_MAGIC = b"DHC1"
_FORMAT_VERSION = 1
_CODEBOOK_HEADER = struct.Struct("<4sHHIII")  # magic, ver, pad, dim, m, bits
_COLD_HEADER = struct.Struct(
    "<4sHHIIIQii")  # magic, ver, pad, cid, n, m, vec_off, reserved x 2
_RESERVED = (-1, 0)


@dataclasses.dataclass(frozen=True)
class ColdCluster:
    """Decoded cold extent: labels + short codes."""

    cluster_id: int
    labels: np.ndarray          # (n,) i64
    codes: np.ndarray           # (n, num_subspaces) u8
    vectors_offset: int         # region-relative offset of full vectors

    @property
    def num_nodes(self) -> int:
        return int(self.labels.shape[0])


# ----------------------------------------------------------------------
def serialize_codebook(book: PqCodebook) -> bytes:
    """Serialize a trained codebook into one ``DHQ1`` blob."""
    centroids = book.centroids  # raises ConfigError if untrained
    header = _CODEBOOK_HEADER.pack(CODEBOOK_MAGIC, _FORMAT_VERSION, 0,
                                   book.dim, book.num_subspaces, BITS)
    return header + centroids.astype(np.float32, copy=False).tobytes()


def deserialize_codebook(blob: "bytes | memoryview") -> PqCodebook:
    """Rebuild a trained :class:`PqCodebook` from a ``DHQ1`` blob."""
    if len(blob) < _CODEBOOK_HEADER.size:
        raise SerializationError(
            f"codebook blob of {len(blob)} B shorter than header "
            f"{_CODEBOOK_HEADER.size} B")
    magic, version, _, dim, num_subspaces, bits = (
        _CODEBOOK_HEADER.unpack_from(blob, 0))
    if magic != CODEBOOK_MAGIC:
        raise SerializationError(f"bad codebook magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise SerializationError(f"unsupported codebook version {version}")
    if bits != BITS or num_subspaces < 1 or dim < 1:
        raise SerializationError(
            f"implausible codebook geometry dim={dim} "
            f"subspaces={num_subspaces} bits={bits} (codes are "
            f"{BITS}-bit)")
    book = PqCodebook(dim, num_subspaces)
    count = num_subspaces * book.num_centroids * book.subspace_dim
    if len(blob) < _CODEBOOK_HEADER.size + 4 * count:
        raise SerializationError(
            f"truncated codebook blob: centroids need {4 * count} B, "
            f"blob holds {len(blob) - _CODEBOOK_HEADER.size} B")
    tables = np.frombuffer(blob, dtype=np.float32, count=count,
                           offset=_CODEBOOK_HEADER.size)
    book.load_centroids(tables.reshape(num_subspaces, book.num_centroids,
                                       book.subspace_dim))
    return book


def codebook_blob_size(book: PqCodebook) -> int:
    """Exact byte size of :func:`serialize_codebook`'s output."""
    return (_CODEBOOK_HEADER.size
            + 4 * book.num_subspaces * book.num_centroids
            * book.subspace_dim)


# ----------------------------------------------------------------------
def cold_extent_size(num_nodes: int, num_subspaces: int) -> int:
    """Exact byte size of a cold extent with the given geometry."""
    codes_bytes = num_nodes * num_subspaces
    padded_codes = (codes_bytes + 7) & ~7
    return _COLD_HEADER.size + 8 * num_nodes + padded_codes


def serialize_cold_cluster(cluster_id: int, labels: np.ndarray,
                           codes: np.ndarray, vectors_offset: int) -> bytes:
    """Serialize one cluster's cold form into a ``DHC1`` extent."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
    num_nodes, num_subspaces = codes.shape
    if labels.shape[0] != num_nodes:
        raise SerializationError(
            f"{num_nodes} code rows but {labels.shape[0]} labels")
    buffer = bytearray(cold_extent_size(num_nodes, num_subspaces))
    _COLD_HEADER.pack_into(buffer, 0, COLD_MAGIC, _FORMAT_VERSION, 0,
                           cluster_id, num_nodes, num_subspaces,
                           vectors_offset, *_RESERVED)
    offset = _COLD_HEADER.size
    buffer[offset:offset + 8 * num_nodes] = labels.tobytes()
    offset += 8 * num_nodes
    codes_bytes = codes.tobytes()
    buffer[offset:offset + len(codes_bytes)] = codes_bytes
    return bytes(buffer)


def deserialize_cold_cluster(blob: "bytes | memoryview") -> ColdCluster:
    """Decode a ``DHC1`` extent; zero-copy views over ``blob``."""
    if len(blob) < _COLD_HEADER.size:
        raise SerializationError(
            f"cold extent of {len(blob)} B shorter than header "
            f"{_COLD_HEADER.size} B")
    (magic, version, _, cluster_id, num_nodes, num_subspaces,
     vectors_offset, medoid, degree) = _COLD_HEADER.unpack_from(blob, 0)
    if magic != COLD_MAGIC:
        raise SerializationError(f"bad cold-extent magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported cold-extent version {version}")
    if num_subspaces < 1:
        raise SerializationError(
            f"implausible cold geometry subspaces={num_subspaces}")
    if (medoid, degree) != _RESERVED:
        raise SerializationError(
            f"cluster {cluster_id}: reserved header words are "
            f"({medoid}, {degree}), expected {_RESERVED} — a graph-walk "
            f"extent (medoid, degree) is not supported")
    expected = cold_extent_size(num_nodes, num_subspaces)
    if len(blob) < expected:
        raise SerializationError(
            f"truncated cold extent: geometry needs {expected} B, "
            f"blob is {len(blob)} B")
    offset = _COLD_HEADER.size
    labels = np.frombuffer(blob, dtype=np.int64, count=num_nodes,
                           offset=offset)
    offset += 8 * num_nodes
    codes = np.frombuffer(blob, dtype=np.uint8,
                          count=num_nodes * num_subspaces,
                          offset=offset).reshape(num_nodes, num_subspaces)
    return ColdCluster(cluster_id=cluster_id, labels=labels, codes=codes,
                       vectors_offset=int(vectors_offset))
