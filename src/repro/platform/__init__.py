"""Execution backends behind one seam.

The runtime builds its machine through :func:`make_machine`, selecting
a backend by name (usually from ``RuntimeConfig.backend``):

``sim``
    The discrete-event simulator — deterministic, fault-injectable,
    the backend every timing table and invariant replay runs on.

``threaded``
    Real time: one OS thread per node, wall-clock time, convergence
    semantics.  Same protocols, no determinism, no fault injection.

``mp``
    Distributed: one OS *process* per node, batched binary frames
    over a full mesh of stream sockets (UNIX-domain by default, TCP
    with ``net.transport="tcp"``) meshed by address at bring-up, one
    worker loop, token-ring quiescence detection, and cluster-wide
    ``(birthplace, descriptor)`` name resolution with FIR-style
    back-patching on the driver.  The only backend where the GIL does
    not serialise node execution; no determinism (fault injection
    *is* supported, with per-(seed, node) deterministic draw streams),
    and non-picklable payloads are hard errors.

``asyncio`` is a deprecated alias, kept for one release, of ``mp``
with ``net.transport="tcp"`` (see ``BACKEND_ALIASES`` in
:mod:`repro.config`).

Backend modules are imported lazily so constructing a sim machine
never pays for ``threading`` machinery and vice versa, and so the
interface module stays import-cycle-free.
"""

from __future__ import annotations

from typing import Optional

from repro.config import BACKEND_ALIASES, BACKENDS, RuntimeConfig
from repro.errors import ReproError
from repro.platform.base import (
    Clock,
    NodeExecutor,
    PlatformMachine,
    TimerHandle,
    Transport,
)

def make_machine(
    config: RuntimeConfig,
    *,
    backend: Optional[str] = None,
    trace: bool = False,
    faults=None,
) -> PlatformMachine:
    """Construct the partition for ``config`` on the chosen backend.

    ``backend`` defaults to ``config.backend``.  ``faults`` is a
    :class:`~repro.sim.faults.FaultPlan`; passing a non-empty plan to
    a backend without fault support raises :class:`ReproError`.
    """
    name = backend if backend is not None else getattr(config, "backend", "sim")
    if name in BACKEND_ALIASES:
        config = config.with_(backend=name)  # warns, resolves the alias
        name = config.backend
    if name == "sim":
        from repro.platform.simbackend import SimMachine

        return SimMachine(config, trace=trace, faults=faults)
    if name == "threaded":
        from repro.platform.threaded import ThreadedMachine

        return ThreadedMachine(config, trace=trace, faults=faults)
    if name == "mp":
        from repro.platform.mp import MpMachine

        return MpMachine(config, trace=trace, faults=faults)
    raise ReproError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
    )


__all__ = [
    "BACKENDS",
    "Clock",
    "NodeExecutor",
    "PlatformMachine",
    "TimerHandle",
    "Transport",
    "make_machine",
]
