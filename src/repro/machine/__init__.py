"""Simulated distributed-memory machine.

The paper ran on Cray T3D and T3E.  Offline Python cannot drive real MPI
hardware at the fine message granularity the asynchronous S* codes need
(see DESIGN.md), so this package provides a deterministic **discrete-event
SPMD simulator**: ranks are Python generators that execute the *real*
numerics; compute and communication advance per-rank virtual clocks priced
by a :class:`MachineSpec` calibrated to the paper's published kernel and
network figures.

Runs record task spans and (``trace=True``) per-attempt message records
as the :mod:`repro.obs` types :class:`~repro.obs.Span` and
:class:`~repro.obs.TraceMessage`, so the verifiers, profiler and Gantt
renderer read one record stream.

:mod:`faults` adds deterministic fault injection (message drop/duplicate/
delay/corrupt, rank crashes) and the opt-in reliable-delivery transport;
see DESIGN.md "Resilience".
"""

from .specs import MachineSpec, MACHINES, T3D, T3E, GENERIC
from .faults import (
    FaultPlan,
    MessageFaultRule,
    CrashFault,
    ReliableDelivery,
    FaultStats,
)
from .simulator import (
    Simulator,
    Env,
    SimResult,
    DeadlockError,
    DeliveryError,
    MessageLostError,
    PayloadMutationError,
    RankCrashedError,
    Timeout,
    TIMEOUT,
)

__all__ = [
    "MachineSpec",
    "MACHINES",
    "T3D",
    "T3E",
    "GENERIC",
    "FaultPlan",
    "MessageFaultRule",
    "CrashFault",
    "ReliableDelivery",
    "FaultStats",
    "Simulator",
    "Env",
    "SimResult",
    "DeadlockError",
    "DeliveryError",
    "MessageLostError",
    "PayloadMutationError",
    "RankCrashedError",
    "Timeout",
    "TIMEOUT",
]
