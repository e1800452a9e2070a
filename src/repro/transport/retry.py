"""Bounded retry with exponential backoff over any transport.

:class:`RetryingTransport` wraps a :class:`~repro.transport.base.Transport`
and absorbs transient :class:`~repro.errors.TransportError` failures on
READ-shaped verbs.  Each re-attempt is preceded by an exponential backoff
charged to the wrapped transport's :class:`~repro.rdma.clock.SimClock` and
accounted in ``RdmaStats.retries`` / ``backoff_time_us``, so a request that
survived a fault is visibly slower than a clean one while returning
bit-identical payloads.  When the budget runs out the last failure is
re-raised wrapped in :class:`~repro.errors.RetryExhaustedError`.
Backoff before re-attempt ``n`` (1-based) is
``min(BASE_BACKOFF_US * 2**(n-1), MAX_BACKOFF_US)``.

Async READs retry at :meth:`poll` time: the failed completion is replaced
by a *synchronous* re-issue of the recorded descriptors, because by poll
time the caller has already burned its overlap window.
"""

from __future__ import annotations

from repro.errors import ConfigError, RetryExhaustedError, TransportError
from repro.transport.base import (
    PendingRead,
    ReadDescriptor,
    Transport,
    WriteDescriptor,
)

__all__ = ["RetryingTransport", "backoff_us"]

#: Re-attempts a :class:`RetryingTransport` makes unless told otherwise.
MAX_RETRIES = 3
BASE_BACKOFF_US = 50.0
MAX_BACKOFF_US = 5_000.0


def backoff_us(attempt: int) -> float:
    """Backoff charged before re-attempt ``attempt`` (1-based)."""
    return min(BASE_BACKOFF_US * 2.0 ** (attempt - 1), MAX_BACKOFF_US)


class RetryingTransport:
    """A transport decorator that re-attempts a failed verb up to
    ``max_retries`` times."""

    def __init__(self, inner: Transport,
                 max_retries: int = MAX_RETRIES) -> None:
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        self.inner = inner
        self.max_retries = max_retries
        # Descriptors of in-flight async batches, so a failed poll can be
        # replayed synchronously.  Keyed by token identity; PendingRead is
        # a plain dataclass and not hashable.
        self._inflight: dict[int, tuple[list[ReadDescriptor], bool]] = {}

    # -- bookkeeping ----------------------------------------------------
    @property
    def clock(self):
        return self.inner.clock

    @property
    def stats(self):
        return self.inner.stats

    # -- retry loop -----------------------------------------------------
    def _run(self, op: str, fn):
        attempt = 0
        while True:
            try:
                return fn()
            except RetryExhaustedError:
                raise  # a nested retry layer already gave up; don't stack
            except TransportError as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise RetryExhaustedError(
                        f"{op} failed after {attempt} attempt(s): {exc}",
                        last_error=exc, attempts=attempt, op=op) from exc
                backoff = backoff_us(attempt)
                self.clock.advance(backoff)
                self.stats.record_retry(backoff)

    # -- synchronous verbs ----------------------------------------------
    def read(self, rkey: int, addr: int,
             length: int) -> "memoryview | bytes":
        return self._run("READ", lambda: self.inner.read(rkey, addr, length))

    def write(self, rkey: int, addr: int, data) -> None:
        self._run("WRITE", lambda: self.inner.write(rkey, addr, data))

    def cas(self, rkey: int, addr: int, expected: int, desired: int) -> int:
        return self._run(
            "CAS", lambda: self.inner.cas(rkey, addr, expected, desired))

    def faa(self, rkey: int, addr: int, delta: int) -> int:
        return self._run("FAA", lambda: self.inner.faa(rkey, addr, delta))

    # -- batched verbs --------------------------------------------------
    def read_batch(self, descriptors: list[ReadDescriptor],
                   doorbell: bool = True) -> "list[memoryview | bytes]":
        return self._run(
            "READ_BATCH",
            lambda: self.inner.read_batch(descriptors, doorbell=doorbell))

    def write_batch(self, descriptors: list[WriteDescriptor],
                    doorbell: bool = True) -> None:
        self._run(
            "WRITE_BATCH",
            lambda: self.inner.write_batch(descriptors, doorbell=doorbell))

    def read_batch_async(self, descriptors: list[ReadDescriptor],
                         doorbell: bool = True) -> PendingRead:
        pending = self.inner.read_batch_async(descriptors, doorbell=doorbell)
        self._inflight[id(pending)] = (list(descriptors), doorbell)
        return pending

    def poll(self, pending: PendingRead) -> "list[memoryview | bytes]":
        descriptors, doorbell = self._inflight.pop(
            id(pending), (None, True))
        attempt = 0
        try:
            return self.inner.poll(pending)
        except RetryExhaustedError:
            raise
        except TransportError as exc:
            if descriptors is None:
                raise  # token we never issued; nothing to replay
            last = exc
        while True:
            attempt += 1
            if attempt > self.max_retries:
                raise RetryExhaustedError(
                    f"ASYNC_READ failed after {attempt} attempt(s): {last}",
                    last_error=last, attempts=attempt,
                    op="ASYNC_READ") from last
            backoff = backoff_us(attempt)
            self.clock.advance(backoff)
            self.stats.record_retry(backoff)
            try:
                return self.inner.read_batch(descriptors, doorbell=doorbell)
            except RetryExhaustedError:
                raise
            except TransportError as exc:
                last = exc

    def abandon(self, pending: PendingRead) -> None:
        self._inflight.pop(id(pending), None)
        self.inner.abandon(pending)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self.inner.close()
