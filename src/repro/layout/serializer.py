"""Binary serialization of sub-HNSW clusters and overflow records.

Wire format (little-endian throughout):

Cluster blob (§3.2: "its metadata, neighbor array for HNSW, and the
associated floating-point vectors"), ``DHN2``:

====================  =======================================================
section               contents
====================  =======================================================
header                magic ``b"DHN2"``, version u16, id width u16,
                      cluster_id u32, num_nodes u32, dim u32, max_level i32,
                      entry_point i32
labels                num_nodes x i64 (global dataset ids)
levels                num_nodes x u8 (top layer of each node)
counts                one neighbour count per (node, layer 0..level), in
                      node order, each ``width`` bytes
ids                   every neighbour list back to back, each id ``width``
                      bytes
pad                   0-3 zero bytes, so the vectors start 4-byte aligned
vectors               num_nodes x dim x f32 — the blob's last
                      ``4 * num_nodes * dim`` bytes
====================  =======================================================

``width`` is one per blob: 1, 2 or 4 bytes, the narrowest unsigned
integer that holds both the largest node id (``num_nodes - 1``) and the
longest neighbour list, so a sub-HNSW of a few hundred nodes ships its
graph at one byte per id.  The sections end exactly at the blob's
length, which is what lets readers that never parse the graph find the
labels right after the header and the vectors at the end.

Overflow record (one dynamically inserted vector):

``global_id i64 | cluster_id u32 | vector dim x f32``

Records are fixed-size for a given dimensionality, so a slot index from a
remote fetch-and-add maps directly to a byte offset.  The top bit of
``cluster_id`` flags a **tombstone** (a logical delete of ``global_id``);
replaying a group's records in slot order therefore yields the current
live/dead state of every dynamic id, and deletes cost exactly one record
write like inserts do.

The codec is zero-copy on both sides: :func:`serialize_cluster` fills one
preallocated buffer through ``np.frombuffer`` views (no per-node
``struct.pack``, no ``bytes`` concatenation), and
:func:`deserialize_cluster` reads whole sections as array views, bulk-
loading the graph instead of re-adding nodes one at a time.  A
node-by-node ``struct`` writer kept test-side
(``tests/hnsw/reference_build.py``) pins the bytes.
"""

from __future__ import annotations

import dataclasses
import itertools
import struct

import numpy as np

from repro.errors import SerializationError
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams

__all__ = [
    "MAGIC",
    "OverflowRecord",
    "replay_overflow",
    "overflow_record_size",
    "pack_overflow_record",
    "pack_overflow_records",
    "unpack_overflow_records",
    "serialize_cluster",
    "serialized_cluster_size",
    "deserialize_cluster",
    "BlobSplit",
    "cluster_blob_split",
]

MAGIC = b"DHN2"
_FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sHHIIIii")  # magic, ver, width, cid, n, dim, maxlvl, entry
_ID_DTYPES = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}
_MAX_LEVEL = 255  # levels ship as u8
_OVERFLOW_HEAD = struct.Struct("<qI")  # global_id, cluster_id


#: Top bit of the on-wire cluster_id field marks a tombstone record.
_TOMBSTONE_BIT = 0x8000_0000
_TOMBSTONE_MASK = np.uint32(_TOMBSTONE_BIT)
_CLUSTER_ID_MASK = np.uint32(_TOMBSTONE_BIT - 1)


@dataclasses.dataclass(frozen=True)
class OverflowRecord:
    """A dynamic-data record in a group's overflow space.

    ``tombstone=False``: a newly inserted vector.
    ``tombstone=True``: a logical delete of ``global_id`` (the stored
    vector is the routing vector and is otherwise ignored).
    """

    global_id: int
    cluster_id: int
    vector: np.ndarray
    tombstone: bool = False


def replay_overflow(records: "list[OverflowRecord]"
                    ) -> "dict[int, OverflowRecord | None]":
    """Fold overflow records (slot order) into per-id final state.

    The latest record of an id wins: ``state[gid] is None`` means the id
    is tombstoned, a live record supersedes any earlier record *and* any
    base-graph vector with the same id (search and rebuild alike).
    """
    state: dict[int, OverflowRecord | None] = {}
    for record in records:
        state[record.global_id] = None if record.tombstone else record
    return state


def overflow_record_size(dim: int) -> int:
    """Bytes per overflow record for vectors of ``dim`` components."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    return _OVERFLOW_HEAD.size + 4 * dim


def pack_overflow_record(record: OverflowRecord) -> bytes:
    """Serialize one overflow record."""
    vector = np.asarray(record.vector, dtype=np.float32).reshape(-1)
    wire_cid = record.cluster_id
    if record.tombstone:
        wire_cid |= _TOMBSTONE_BIT
    head = _OVERFLOW_HEAD.pack(record.global_id, wire_cid)
    return head + vector.tobytes()


def pack_overflow_records(records: "list[OverflowRecord]") -> bytes:
    """Serialize a run of overflow records into one contiguous buffer.

    The cutover's record migration writes surviving late arrivals into
    the fresh overflow area with a single WRITE, so the run must be one
    wire-ready byte string rather than per-record payloads.
    """
    return b"".join(pack_overflow_record(record) for record in records)


def unpack_overflow_records(blob: bytes, dim: int, count: int,
                            cluster_id: int | None = None
                            ) -> list[OverflowRecord]:
    """Deserialize the first ``count`` records from an overflow area.

    With ``cluster_id``, only that cluster's records, in slot order — a
    group's area interleaves both members', and a reader serving one of
    them skips the other's before any record object is built.
    """
    record_size = overflow_record_size(dim)
    if len(blob) < count * record_size:
        raise SerializationError(
            f"overflow blob holds {len(blob)} B, need {count * record_size}")
    if count <= 0:
        return []
    # One structured view decodes every record at once; the vector block
    # is copied out in a single bulk operation so each record owns its
    # slice independent of the source buffer.
    wire = np.dtype([("global_id", "<i8"), ("cluster_id", "<u4"),
                     ("vector", "<f4", (dim,))])
    assert wire.itemsize == record_size
    rows = np.frombuffer(blob, dtype=wire, count=count)
    wire_cids = rows["cluster_id"]
    if cluster_id is not None:
        rows = rows[(wire_cids & _CLUSTER_ID_MASK) == cluster_id]
        wire_cids = rows["cluster_id"]
    vectors = np.array(rows["vector"], dtype=np.float32)
    return list(map(OverflowRecord, rows["global_id"].tolist(),
                    (wire_cids & _CLUSTER_ID_MASK).tolist(), vectors,
                    ((wire_cids & _TOMBSTONE_MASK) != 0).tolist()))


# ----------------------------------------------------------------------
def _check_header(blob: "bytes | memoryview") -> tuple:
    """The header's fields, once its length, magic and version hold."""
    if len(blob) < _HEADER.size:
        raise SerializationError(
            f"blob of {len(blob)} B shorter than header {_HEADER.size} B")
    header = _HEADER.unpack_from(blob, 0)
    if header[0] != MAGIC:
        raise SerializationError(f"bad magic {header[0]!r}")
    if header[1] != _FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {header[1]}")
    return header


@dataclasses.dataclass(frozen=True)
class BlobSplit:
    """Where a cluster blob's bytes go: ``graph`` is the header, the
    counts, the ids and the alignment pad."""

    id_width: int
    vectors: int
    graph: int
    labels_levels: int


def cluster_blob_split(blob: "bytes | memoryview") -> BlobSplit:
    """A blob's id width and byte split, from its header and length."""
    _, _, width, _, num_nodes, dim, _, _ = _check_header(blob)
    vectors = 4 * num_nodes * dim
    labels_levels = 9 * num_nodes
    return BlobSplit(width, vectors, len(blob) - vectors - labels_levels,
                     labels_levels)


def _id_width(largest: int) -> int:
    """The narrowest id width (bytes) that holds ``largest``."""
    if largest < 1 << 8:
        return 1
    return 2 if largest < 1 << 16 else 4


def _blob_size(num_nodes: int, dim: int, width: int, num_lists: int,
               num_ids: int) -> int:
    graph_end = _HEADER.size + 9 * num_nodes + width * (num_lists + num_ids)
    return graph_end + (-graph_end) % 4 + 4 * num_nodes * dim


def serialized_cluster_size(index: HnswIndex) -> int:
    """Exact byte size of ``serialize_cluster``'s output for ``index``.

    Cheap enough (one pass over the adjacency lists, no copying) that the
    layout planner can place every cluster before any blob exists.
    """
    graph = index.graph
    counts = [len(layer) for layers in graph.adjacency for layer in layers]
    width = _id_width(max(len(graph) - 1, max(counts, default=0)))
    return _blob_size(len(graph), graph.dim, width, len(counts), sum(counts))


def serialize_cluster(index: HnswIndex, cluster_id: int) -> bytes:
    """Serialize a sub-HNSW (graph + labels + vectors) into one blob.

    Zero-copy: the exact output size is computed up front and every
    section is written through an array view over one preallocated
    buffer.
    """
    graph = index.graph
    num_nodes = len(graph)
    entry = graph.entry_point if graph.entry_point is not None else -1
    adjacency = graph.adjacency

    levels = [len(layers) - 1 for layers in adjacency]
    if num_nodes and max(levels) > _MAX_LEVEL:
        raise SerializationError(
            f"node level {max(levels)} does not fit the u8 levels section")
    counts = [len(layer) for layers in adjacency for layer in layers]
    ids = np.fromiter(itertools.chain.from_iterable(
        itertools.chain.from_iterable(adjacency)), dtype=np.int64,
        count=sum(counts))
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= num_nodes):
        raise SerializationError(
            f"neighbour id out of range for {num_nodes} nodes")
    width = _id_width(max(num_nodes - 1, max(counts, default=0)))

    buffer = bytearray(_blob_size(num_nodes, graph.dim, width, len(counts),
                                  ids.size))
    _HEADER.pack_into(buffer, 0, MAGIC, _FORMAT_VERSION, width, cluster_id,
                      num_nodes, graph.dim, graph.max_level, entry)
    offset = _HEADER.size
    for values, dtype, count in ((index.labels, np.dtype("<i8"), num_nodes),
                                 (levels, np.dtype("u1"), num_nodes),
                                 (counts, _ID_DTYPES[width], len(counts)),
                                 (ids, _ID_DTYPES[width], ids.size)):
        view = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
        view[:] = values
        offset += view.nbytes

    vectors_view = np.frombuffer(buffer, dtype=np.float32,
                                 count=num_nodes * graph.dim,
                                 offset=len(buffer) - 4 * num_nodes
                                 * graph.dim)
    vectors_view[:] = graph.vectors.reshape(-1)
    return bytes(buffer)


def deserialize_cluster(blob: "bytes | memoryview",
                        params: HnswParams | None = None
                        ) -> tuple[HnswIndex, int]:
    """Rebuild a sub-HNSW from a blob; returns ``(index, cluster_id)``.

    The graph structure is restored verbatim — no re-insertion — so a
    deserialized cluster answers queries identically to the original.
    Zero-copy: ``blob`` may be a ``memoryview`` straight off a READ
    payload; the vector store becomes a frozen ``frombuffer`` view over
    it (adopted by the graph without copying), so the returned index
    aliases ``blob``'s memory and shares its lifetime.
    """
    _, _, width, cluster_id, num_nodes, dim, max_level, entry = (
        _check_header(blob))
    if width not in _ID_DTYPES:
        raise SerializationError(f"bad id width {width}")
    if dim < 1 or dim > 1 << 20:
        raise SerializationError(f"implausible dimension {dim}")
    # These bytes arrive from remote memory — every section read must be
    # bounds-checked so corruption fails as SerializationError, never as
    # a stray ValueError/IndexError deep in numpy.
    offset = _HEADER.size

    def take(dtype: np.dtype, count: int, what: str) -> np.ndarray:
        nonlocal offset
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(blob):
            raise SerializationError(
                f"truncated blob: {what} needs {nbytes} B at offset "
                f"{offset}, blob is {len(blob)} B")
        section = np.frombuffer(blob, dtype=dtype, count=count,
                                offset=offset)
        offset += nbytes
        return section

    ids_dtype = _ID_DTYPES[width]
    labels = take(np.dtype("<i8"), num_nodes, "labels")
    levels = take(np.dtype("u1"), num_nodes, "levels")
    layer_ends = np.cumsum(levels, dtype=np.int64) + np.arange(
        1, num_nodes + 1)
    counts = take(ids_dtype, int(layer_ends[-1]) if num_nodes else 0,
                  "neighbour counts")
    list_ends = np.cumsum(counts, dtype=np.int64)
    ids = take(ids_dtype, int(list_ends[-1]) if counts.size else 0,
               "neighbour ids")
    if ids.size and int(ids.max()) >= num_nodes:
        raise SerializationError("neighbour id out of range")
    if width != _id_width(max(num_nodes - 1,
                              int(counts.max()) if counts.size else 0)):
        raise SerializationError(
            f"id width {width} is not the narrowest for this graph")
    if any(take(np.dtype("u1"), -offset % 4, "alignment pad")):
        raise SerializationError("non-zero alignment pad")
    vectors = take(np.dtype("<f4"), num_nodes * dim,
                   "vectors").reshape(num_nodes, dim)
    if offset != len(blob):
        raise SerializationError(
            f"{len(blob) - offset} trailing bytes after the vectors")
    # The view may sit over writable region memory (a zero-copy READ
    # payload); freeze it so the graph adopts it as a frozen store and
    # nothing downstream can scribble on the memory node through it.
    vectors.flags.writeable = False
    if num_nodes:
        if not -1 <= entry < num_nodes:
            raise SerializationError(
                f"entry point {entry} out of range for {num_nodes} nodes")
        if max_level != int(levels.max()):
            raise SerializationError(
                f"header max_level {max_level} != computed "
                f"{int(levels.max())}")
    elif entry != -1 or max_level != -1:
        raise SerializationError("empty cluster with non-empty header")

    # One tolist() of the ids, split into lists at the counts' running
    # sums, then grouped into nodes at the levels' running sums.
    flat = ids.tolist()
    bounds = [0, *list_ends.tolist()]
    lists = [flat[start:end] for start, end in itertools.pairwise(bounds)]
    bounds = [0, *layer_ends.tolist()]
    adjacency = [lists[start:end]
                 for start, end in itertools.pairwise(bounds)]

    index = HnswIndex(dim, params if params is not None else HnswParams())
    graph = index.graph
    if num_nodes:
        graph.bulk_load(vectors, adjacency, copy=False)
    graph.max_level = max_level
    graph.entry_point = entry if entry >= 0 else None
    index.labels = labels.tolist()
    return index, cluster_id
