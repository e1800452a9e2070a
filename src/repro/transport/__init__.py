"""Transport layer: the seam between index logic and one-sided memory.

Upper layers (``repro.core``, ``repro.serving``, ``repro.cluster``) obtain
remote bytes exclusively through a :class:`Transport`; the simulated-RDMA
substrate in ``repro.rdma`` sits behind :class:`SimRdmaTransport`.
Decorators compose fault tolerance::

    transport = RetryingTransport(
        FaultInjectingTransport(SimRdmaTransport(qp), plan), max_retries=3)

See ``docs/architecture.md`` for the layer contract and
``tests/test_layering.py`` for its enforcement.
"""

from repro.transport.base import (
    PendingRead,
    ReadDescriptor,
    Transport,
    WriteDescriptor,
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
from repro.transport.sim import SimRdmaTransport, connect

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
    "SimRdmaTransport",
    "Transport",
    "WriteDescriptor",
    "connect",
]
