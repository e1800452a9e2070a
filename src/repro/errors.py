"""Exception hierarchy for the d-HNSW reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subsystem-specific errors
carry enough context (offsets, ids, sizes) to debug a failed simulation run
without re-running it.
"""

from __future__ import annotations

import numpy as np


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError, ValueError):
    """A configuration value is out of range or inconsistent."""


class DimensionMismatchError(ReproError, ValueError):
    """A vector's dimensionality does not match the index it targets
    (``actual`` is a dimension, or the whole shape of a query array that
    is not one vector or one batch of rows)."""

    def __init__(self, expected: int, actual: "int | tuple") -> None:
        got = (f"shape {actual}" if isinstance(actual, tuple)
               else str(actual))
        super().__init__(f"expected dimension {expected}, got {got}")
        self.expected = expected
        self.actual = actual


class NonFiniteVectorError(ReproError, ValueError):
    """A vector holds a NaN or an infinity, so no distance to it can be
    ordered: raised where vectors enter, naming the first bad row."""

    def __init__(self, row: int, what: str) -> None:
        super().__init__(f"{what} row {row} holds a NaN or an infinity")
        self.row = row

    @classmethod
    def check(cls, vectors: np.ndarray, what: str) -> None:
        """Raise for the first row of ``vectors`` (a single vector is row
        0) that is not entirely finite."""
        finite = np.isfinite(vectors)
        if not finite.all():
            rows = np.atleast_2d(finite).all(axis=1)
            raise cls(int(rows.argmin()), what)


class EmptyIndexError(ReproError, RuntimeError):
    """A search was issued against an index containing no vectors."""


class RdmaError(ReproError):
    """Base class for simulated-RDMA failures."""


class ProtectionError(RdmaError):
    """An RDMA verb referenced memory outside a registered region,
    or presented a stale/incorrect rkey."""

    def __init__(self, message: str, *, addr: int | None = None,
                 length: int | None = None) -> None:
        super().__init__(message)
        self.addr = addr
        self.length = length


class QpStateError(RdmaError):
    """A verb was posted on a queue pair that is not connected."""


class TransportError(RdmaError):
    """Base class for failures surfaced by the transport layer.

    Raised by :mod:`repro.transport` implementations when a verb cannot
    complete.  The serving layer never sees raw verb failures — a
    :class:`~repro.transport.retry.RetryingTransport` absorbs transient
    errors within its policy and re-raises a typed subclass once the
    retry budget is exhausted.
    """

    def __init__(self, message: str, *, op: str | None = None,
                 attempt: int = 0) -> None:
        super().__init__(message)
        self.op = op
        self.attempt = attempt


class TransportTimeoutError(TransportError):
    """A verb did not complete within the armed per-op timeout."""


class PartialReadError(TransportError):
    """A READ completed with fewer bytes than requested (torn DMA)."""

    def __init__(self, message: str, *, expected: int | None = None,
                 received: int | None = None, **kwargs: object) -> None:
        super().__init__(message, **kwargs)
        self.expected = expected
        self.received = received


class CorruptedReadError(TransportError):
    """A READ payload failed its integrity check (flipped bits on the
    wire or a torn remote write)."""


class StaleReadError(TransportError):
    """A READ observed remote metadata mid-update (version/checksum
    mismatch); the caller should re-issue the READ."""


class NoHealthyReplicaError(TransportError):
    """Every replica of the memory pool is marked unhealthy (or was
    already tried for this request), so a READ cannot fail over anywhere.

    Carries the final underlying failure as ``last_error`` when the
    request burned through live replicas on the way here.
    """

    def __init__(self, message: str, *,
                 last_error: "TransportError | None" = None,
                 **kwargs: object) -> None:
        super().__init__(message, **kwargs)
        self.last_error = last_error


class RetryExhaustedError(TransportError):
    """The retry policy's budget ran out without a successful completion.

    Carries the final underlying failure as ``last_error``.
    """

    def __init__(self, message: str, *, last_error: TransportError,
                 attempts: int, **kwargs: object) -> None:
        super().__init__(message, **kwargs)
        self.last_error = last_error
        self.attempts = attempts


class LayoutError(ReproError):
    """The serialized remote layout is malformed or inconsistent."""


class SerializationError(LayoutError):
    """A serialized sub-HNSW blob failed to round-trip."""


class OverflowFullError(LayoutError):
    """A group's shared overflow region cannot hold another insertion.

    The engine catches this and triggers a partition rebuild; user code
    only sees it if rebuilds are disabled.
    """

    def __init__(self, group_id: int, capacity: int, needed: int) -> None:
        super().__init__(
            f"overflow region of group {group_id} full: capacity "
            f"{capacity} B, need {needed} B more")
        self.group_id = group_id
        self.capacity = capacity
        self.needed = needed


class GroupSealedError(LayoutError):
    """A slot reservation landed on an overflow area a concurrent shadow
    rebuild has sealed.  The group has been relocated; the writer should
    refresh its metadata and retry against the new location."""

    def __init__(self, group_id: int) -> None:
        super().__init__(
            f"overflow area of group {group_id} is sealed (group "
            f"relocated by a concurrent rebuild); refresh and retry")
        self.group_id = group_id
