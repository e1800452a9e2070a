"""Grace-period reclamation of extents retired by shadow rebuilds.

A cutover relocates a group and retires its old extents, but a reader
pinned to the previous metadata epoch may still hold offsets into them
(the sealed overflow area remains a consistent, decodable snapshot).
Retired space therefore flows through a :class:`RetiredExtentLog`
instead of straight back to the allocator: each entry remembers the
metadata version whose publication retired it, and is recycled only
once every *registered observer* has caught up to that version.

Observers are compute clients.  Registration is lazy — a client joins
the table the first time it refreshes metadata (and reports every later
refresh), so an idle client that never touches the data path holds no
pin and cannot block reclamation.  The rebuilder itself observes the
new version at publish time, which makes single-writer reclamation
immediate.

The log is host-side control-plane state shared by all clients of a
deployment (it lives on :class:`repro.core.engine.RemoteLayout`); no
simulated RDMA traffic is charged for bookkeeping.
"""

from __future__ import annotations

import dataclasses

__all__ = ["RetiredExtent", "RetiredExtentLog"]


@dataclasses.dataclass(frozen=True)
class RetiredExtent:
    """One byte range a cutover retired from the live layout."""

    offset: int
    length: int
    #: The metadata version whose publication made this extent dead.
    #: Readers at versions ``< retired_version`` may still reference it.
    retired_version: int


class RetiredExtentLog:
    """Version-gated ledger of retired extents awaiting reclamation."""

    def __init__(self) -> None:
        self._entries: list[RetiredExtent] = []
        self._observed: dict[int, int] = {}
        self._next_token = 1

    # -- observer table --------------------------------------------------
    def register(self, version: int) -> int:
        """Add an observer at ``version``; returns its token.

        Tokens (not client names) identify observers: distinct clients
        may share a display name.
        """
        token = self._next_token
        self._next_token += 1
        self._observed[token] = int(version)
        return token

    def observe(self, token: int, version: int) -> None:
        """Record that observer ``token`` has seen ``version``.

        Monotonic: a lower version than already recorded is ignored.
        Unknown tokens re-register silently (a client may observe after
        a deregister/re-register cycle).
        """
        current = self._observed.get(token)
        if current is None or version > current:
            self._observed[token] = int(version)

    def deregister(self, token: int) -> None:
        """Drop an observer (client shutdown); releases its pin."""
        self._observed.pop(token, None)

    @property
    def observers(self) -> int:
        """Number of registered observers."""
        return len(self._observed)

    def min_observed(self) -> int | None:
        """Oldest version any registered observer may still be reading,
        or ``None`` when nobody is registered."""
        if not self._observed:
            return None
        return min(self._observed.values())

    # -- retirement ------------------------------------------------------
    def retire(self, offset: int, length: int, retired_version: int) -> None:
        """Log one extent retired by the publish of ``retired_version``."""
        if length <= 0:
            return
        self._entries.append(RetiredExtent(offset, length,
                                           int(retired_version)))

    @property
    def entries(self) -> tuple[RetiredExtent, ...]:
        """Extents retired but not yet reclaimed (oldest first)."""
        return tuple(self._entries)

    @property
    def pending_bytes(self) -> int:
        """Bytes held back from the allocator by the grace period."""
        return sum(entry.length for entry in self._entries)

    def reclaimable(self) -> list[RetiredExtent]:
        """Entries whose grace period has elapsed (oldest first) — the
        grace-period rule, stated once for :meth:`reclaim` and ``fsck``.

        An entry is reclaimable once every registered observer has
        observed a version ``>= retired_version``.  With no observers at
        all, nothing can be pinned, so everything is reclaimable.
        """
        floor = self.min_observed()
        return [entry for entry in self._entries
                if floor is None or entry.retired_version <= floor]

    def reclaim(self, allocator) -> int:
        """Return reclaimable extents to ``allocator``; returns bytes freed.

        Reclaimed entries leave the log, so each extent is retired into
        the allocator exactly once.
        """
        ready = self.reclaimable()
        for entry in ready:
            allocator.retire(entry.offset, entry.length)
        self._entries = [entry for entry in self._entries
                         if entry not in ready]
        return sum(entry.length for entry in ready)
