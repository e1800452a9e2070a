"""Binary serialization of sub-HNSW clusters and overflow records.

Wire format (little-endian throughout):

Cluster blob (§3.2: "its metadata, neighbor array for HNSW, and the
associated floating-point vectors"):

====================  =======================================================
section               contents
====================  =======================================================
header                magic ``b"DHN1"``, version u16, cluster_id u32,
                      num_nodes u32, dim u32, max_level i32, entry_point i32
labels                num_nodes x i64 (global dataset ids)
levels                num_nodes x i32 (top layer of each node)
adjacency             per node, per layer 0..level: count u32 + count x u32
vectors               num_nodes x dim x f32
====================  =======================================================

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
    "peek_cluster_geometry",
]

MAGIC = b"DHN1"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHIIIii")  # magic, ver, pad, cid, n, dim, maxlvl, entry
_COUNT = struct.Struct("<I")
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
    base-graph vector with the same id (search, cold tier, rebuild alike).
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
def peek_cluster_geometry(blob: "bytes | memoryview"
                          ) -> tuple[int, int, int]:
    """Read ``(cluster_id, num_nodes, dim)`` from a blob's header.

    The labels section starts at ``_HEADER.size`` and the vector section
    occupies the last ``4 * num_nodes * dim`` bytes, so this is all a
    caller needs to view either section without a full deserialize (the
    cold-tier builder and the rerank read path both rely on it).
    """
    if len(blob) < _HEADER.size:
        raise SerializationError(
            f"blob of {len(blob)} B shorter than header {_HEADER.size} B")
    magic, version, _, cluster_id, num_nodes, dim, _, _ = (
        _HEADER.unpack_from(blob, 0))
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {version}")
    return cluster_id, num_nodes, dim


def cluster_label_section_offset() -> int:
    """Byte offset of the labels section inside a ``DHN1`` blob."""
    return _HEADER.size


def serialized_cluster_size(index: HnswIndex) -> int:
    """Exact byte size of ``serialize_cluster``'s output for ``index``.

    Cheap enough (one pass over the adjacency lists, no copying) that the
    layout planner can place every cluster before any blob exists.
    """
    graph = index.graph
    num_nodes = len(graph)
    adjacency_words = 0
    for layers in graph.adjacency:
        adjacency_words += len(layers)
        for layer in layers:
            adjacency_words += len(layer)
    return (_HEADER.size + 12 * num_nodes + 4 * adjacency_words
            + 4 * num_nodes * graph.dim)


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

    adjacency_words = 0
    for layers in adjacency:
        adjacency_words += len(layers)
        for layer in layers:
            adjacency_words += len(layer)

    buffer = bytearray(_HEADER.size + 12 * num_nodes + 4 * adjacency_words
                       + 4 * num_nodes * graph.dim)
    _HEADER.pack_into(buffer, 0, MAGIC, _FORMAT_VERSION, 0, cluster_id,
                      num_nodes, graph.dim, graph.max_level, entry)
    offset = _HEADER.size

    labels_view = np.frombuffer(buffer, dtype=np.int64, count=num_nodes,
                                offset=offset)
    labels_view[:] = index.labels
    offset += 8 * num_nodes

    levels_view = np.frombuffer(buffer, dtype=np.int32, count=num_nodes,
                                offset=offset)
    levels_view[:] = [len(layers) - 1 for layers in adjacency]
    offset += 4 * num_nodes

    # Interleaved per-layer "count + ids" words flattened into one list,
    # then converted by a single array assignment.
    flat: list[int] = []
    append = flat.append
    extend = flat.extend
    for layers in adjacency:
        for layer in layers:
            append(len(layer))
            extend(layer)
    adjacency_view = np.frombuffer(buffer, dtype=np.uint32,
                                   count=adjacency_words, offset=offset)
    adjacency_view[:] = flat
    offset += 4 * adjacency_words

    vectors_view = np.frombuffer(buffer, dtype=np.float32,
                                 count=num_nodes * graph.dim, offset=offset)
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
    if len(blob) < _HEADER.size:
        raise SerializationError(
            f"blob of {len(blob)} B shorter than header {_HEADER.size} B")
    magic, version, _, cluster_id, num_nodes, dim, max_level, entry = (
        _HEADER.unpack_from(blob, 0))
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {version}")
    if dim < 1 or dim > 1 << 20:
        raise SerializationError(f"implausible dimension {dim}")
    # These bytes arrive from remote memory — every section read must be
    # bounds-checked so corruption fails as SerializationError, never as
    # a stray ValueError/IndexError deep in numpy.
    offset = _HEADER.size

    def take(nbytes: int, what: str) -> int:
        nonlocal offset
        if nbytes < 0 or offset + nbytes > len(blob):
            raise SerializationError(
                f"truncated blob: {what} needs {nbytes} B at offset "
                f"{offset}, blob is {len(blob)} B")
        start = offset
        offset += nbytes
        return start

    labels = np.frombuffer(blob, dtype=np.int64, count=num_nodes,
                           offset=take(8 * num_nodes, "labels"))
    levels = np.frombuffer(blob, dtype=np.int32, count=num_nodes,
                           offset=take(4 * num_nodes, "levels"))
    if num_nodes and (levels < 0).any():
        raise SerializationError("negative node level")

    # Fail fast on corrupt levels: the adjacency section needs at least
    # one count word per layer, and the vectors follow it, so a levels
    # sum the remaining bytes cannot hold can never parse.
    remaining_words = (len(blob) - offset) // 4
    minimum_words = (int(levels.astype(np.int64).sum()) + num_nodes
                     + num_nodes * dim)
    if minimum_words > remaining_words:
        raise SerializationError(
            f"truncated blob: adjacency and vectors need at least "
            f"{4 * minimum_words} B at offset {offset}, blob is "
            f"{len(blob)} B")

    # The whole adjacency section is one u32 view walked per layer —
    # count lookup, slice, bounds check — instead of per-node struct
    # unpacking and per-id int conversion.
    words = np.frombuffer(blob, dtype=np.uint32, count=remaining_words,
                          offset=offset)
    adjacency: list[list[list[int]]] = []
    cursor = 0
    for node in range(num_nodes):
        layers: list[list[int]] = []
        for _ in range(int(levels[node]) + 1):
            if cursor >= remaining_words:
                raise SerializationError(
                    f"truncated blob: adjacency count of node {node} "
                    f"needs {_COUNT.size} B at offset "
                    f"{offset + 4 * cursor}, blob is {len(blob)} B")
            count = int(words[cursor])
            cursor += 1
            if cursor + count > remaining_words:
                raise SerializationError(
                    f"truncated blob: neighbours of node {node} need "
                    f"{4 * count} B at offset {offset + 4 * cursor}, "
                    f"blob is {len(blob)} B")
            neighbors = words[cursor:cursor + count]
            cursor += count
            if count and int(neighbors.max()) >= num_nodes:
                raise SerializationError(
                    f"node {node}: neighbour id out of range")
            layers.append(neighbors.tolist())
        adjacency.append(layers)
    offset += 4 * cursor

    vectors = np.frombuffer(
        blob, dtype=np.float32, count=num_nodes * dim,
        offset=take(4 * num_nodes * dim, "vectors")).reshape(num_nodes,
                                                             dim)
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

    index = HnswIndex(dim, params if params is not None else HnswParams())
    graph = index.graph
    if num_nodes:
        graph.bulk_load(vectors, adjacency, copy=False)
    graph.max_level = max_level
    graph.entry_point = entry if entry >= 0 else None
    index.labels = labels.tolist()
    return index, cluster_id
