"""Transport layer: the seam between index logic and one-sided memory.

Upper layers (``repro.core``, ``repro.serving``, ``repro.cluster``) obtain
remote bytes exclusively through a :class:`Transport`; the simulated
queue pair in ``repro.rdma`` speaks the protocol itself, and
:func:`connect` stands one up.  Decorators compose fault tolerance::

    transport = RetryingTransport(
        FaultInjectingTransport(connect(node, clock, cost), plan),
        max_retries=3)

See ``docs/architecture.md`` for the layer contract and
``tests/test_layering.py`` for its enforcement.
"""

from repro.transport.base import (
    PendingRead,
    ReadDescriptor,
    Transport,
    WriteDescriptor,
    connect,
)
from repro.transport.fault import (
    FaultInjectingTransport,
    FaultKind,
    FaultPlan,
)
from repro.transport.replica import (
    ReplicaHealth,
    ReplicaSelector,
    ReplicatedTransport,
)
from repro.transport.retry import RetryingTransport

__all__ = [
    "FaultInjectingTransport",
    "FaultKind",
    "FaultPlan",
    "PendingRead",
    "ReadDescriptor",
    "ReplicaHealth",
    "ReplicaSelector",
    "ReplicatedTransport",
    "RetryingTransport",
    "Transport",
    "WriteDescriptor",
    "connect",
]
